// Protocol registry: the routing protocols compared in §6, constructed by
// name with the paper's parameters.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "baselines/direct.h"
#include "baselines/epidemic.h"
#include "baselines/maxprop.h"
#include "baselines/prophet.h"
#include "baselines/random_router.h"
#include "baselines/spray_wait.h"
#include "core/rapid_router.h"
#include "dtn/router.h"

namespace rapid {

enum class ProtocolKind {
  kRapid,        // in-band control channel (the deployed protocol)
  kRapidGlobal,  // instant global control channel (§6.2.3 upper bound)
  kRapidLocal,   // metadata about own-buffer packets only (Fig 14 ablation)
  kMaxProp,
  kSprayWait,
  kProphet,
  kRandom,
  kRandomAcks,   // Random + flooded delivery acks (Fig 14 ablation)
  kEpidemic,
  kDirect,
};

std::string to_string(ProtocolKind kind);
// Inverse of to_string, case-insensitive, accepting '-'/'_'/'+' and the
// short CLI aliases ("rapid", "spray-wait", "random-acks"); nullopt when
// the name matches no protocol.
std::optional<ProtocolKind> protocol_from_string(std::string_view name);

struct ProtocolParams {
  RoutingMetric metric = RoutingMetric::kAvgDelay;  // RAPID's target metric
  // Scenario-scale knobs; the experiment harness fills these from the
  // mobility model (see experiment.h).
  double rapid_prior_meeting_time = 6.0 * kSecondsPerHour;
  Bytes rapid_prior_opportunity = 100_KB;
  double rapid_delay_cap = 24.0 * kSecondsPerHour;
  // Read by routing nothing: RAPID's replica-rate memo is always on. The
  // field stays only because the benchmark driver (benchmark/timed.h)
  // assigns it; ServiceEngine still mixes it into its snapshot config hash
  // so snapshot fingerprints do not move.
  bool rapid_incremental_cache = true;
  double prophet_aging_unit = 60.0;
  int spray_copies = 12;  // §6.1: L = 12
};

// Builds a fresh factory (and fresh shared state) for one simulation run.
RouterFactory make_protocol_factory(ProtocolKind kind, const ProtocolParams& params,
                                    Bytes buffer_capacity);

}  // namespace rapid
