#include "sim/protocols.h"

#include <cctype>
#include <memory>
#include <stdexcept>

namespace rapid {

std::string to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kRapid: return "RAPID";
    case ProtocolKind::kRapidGlobal: return "RAPID-global";
    case ProtocolKind::kRapidLocal: return "RAPID-local";
    case ProtocolKind::kMaxProp: return "MaxProp";
    case ProtocolKind::kSprayWait: return "SprayAndWait";
    case ProtocolKind::kProphet: return "Prophet";
    case ProtocolKind::kRandom: return "Random";
    case ProtocolKind::kRandomAcks: return "Random+acks";
    case ProtocolKind::kEpidemic: return "Epidemic";
    case ProtocolKind::kDirect: return "Direct";
  }
  return "?";
}

std::optional<ProtocolKind> protocol_from_string(std::string_view name) {
  // Canonicalize to lowercase alphanumerics so "Spray-and-Wait",
  // "spray_wait" and "SprayAndWait" all resolve to the same kind.
  std::string key;
  for (char ch : name)
    if (std::isalnum(static_cast<unsigned char>(ch)))
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (key == "rapid") return ProtocolKind::kRapid;
  if (key == "rapidglobal") return ProtocolKind::kRapidGlobal;
  if (key == "rapidlocal") return ProtocolKind::kRapidLocal;
  if (key == "maxprop") return ProtocolKind::kMaxProp;
  if (key == "spraywait" || key == "sprayandwait") return ProtocolKind::kSprayWait;
  if (key == "prophet") return ProtocolKind::kProphet;
  if (key == "random") return ProtocolKind::kRandom;
  if (key == "randomacks") return ProtocolKind::kRandomAcks;
  if (key == "epidemic") return ProtocolKind::kEpidemic;
  if (key == "direct") return ProtocolKind::kDirect;
  return std::nullopt;
}

RouterFactory make_protocol_factory(ProtocolKind kind, const ProtocolParams& params,
                                    Bytes buffer_capacity) {
  switch (kind) {
    case ProtocolKind::kRapid:
    case ProtocolKind::kRapidGlobal:
    case ProtocolKind::kRapidLocal: {
      RapidConfig config;
      config.metric = params.metric;
      config.prior_meeting_time = params.rapid_prior_meeting_time;
      config.prior_opportunity_bytes = params.rapid_prior_opportunity;
      config.utility.delay_cap = params.rapid_delay_cap;
      std::shared_ptr<GlobalChannel> channel;
      if (kind == ProtocolKind::kRapidGlobal) {
        config.control = ControlChannelMode::kGlobalOracle;
        channel = std::make_shared<GlobalChannel>();
      } else if (kind == ProtocolKind::kRapidLocal) {
        config.control = ControlChannelMode::kLocalOnly;
      } else {
        config.control = ControlChannelMode::kInBand;
      }
      return make_rapid_factory(config, buffer_capacity, channel);
    }
    case ProtocolKind::kMaxProp:
      return make_maxprop_factory(MaxPropConfig{}, buffer_capacity);
    case ProtocolKind::kSprayWait: {
      SprayWaitConfig config;
      config.initial_copies = params.spray_copies;
      return make_spray_wait_factory(config, buffer_capacity);
    }
    case ProtocolKind::kProphet: {
      ProphetConfig config;  // P_init = .75, beta = .25, gamma = .98 (§6.1)
      config.aging_unit = params.prophet_aging_unit;
      return make_prophet_factory(config, buffer_capacity);
    }
    case ProtocolKind::kRandom:
      return make_random_factory(RandomConfig{false}, buffer_capacity);
    case ProtocolKind::kRandomAcks:
      return make_random_factory(RandomConfig{true}, buffer_capacity);
    case ProtocolKind::kEpidemic:
      return make_epidemic_factory(EpidemicConfig{false}, buffer_capacity);
    case ProtocolKind::kDirect:
      return make_direct_factory(buffer_capacity);
  }
  throw std::invalid_argument("make_protocol_factory: unknown protocol");
}

}  // namespace rapid
