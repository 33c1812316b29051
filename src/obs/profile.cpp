#include "obs/profile.h"

#include <cstdio>
#include <ostream>

namespace rapid::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kDispatch: return "dispatch";
    case Phase::kMobility: return "mobility";
    case Phase::kPacketGen: return "packet_gen";
    case Phase::kRouting: return "routing";
    case Phase::kTransfer: return "transfer";
    case Phase::kIngest: return "ingest";
    case Phase::kQuery: return "query";
    case Phase::kSnapshot: return "snapshot";
    case Phase::kCount: break;
  }
  return "?";
}

std::uint64_t PhaseProfile::attributed_ns() const {
  std::uint64_t sum = 0;
  for (std::uint64_t v : ns) sum += v;
  return sum;
}

double PhaseProfile::coverage() const {
  if (total_ns == 0) return 0.0;
  const double c = static_cast<double>(attributed_ns()) / static_cast<double>(total_ns);
  return c > 1.0 ? 1.0 : c;  // clock granularity can nudge the sum past total
}

void PhaseProfile::merge(const PhaseProfile& other) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    ns[i] += other.ns[i];
    calls[i] += other.calls[i];
  }
  total_ns += other.total_ns;
  enabled = enabled || other.enabled;
}

namespace {

double to_ms(std::uint64_t v) { return static_cast<double>(v) / 1e6; }

double pct(std::uint64_t part, std::uint64_t total) {
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(total);
}

}  // namespace

void print_phase_table(std::ostream& os, const PhaseProfile& profile) {
  char line[160];
  std::snprintf(line, sizeof(line), "%-12s %12s %12s %7s\n", "phase", "calls", "ms", "%");
  os << line;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    std::snprintf(line, sizeof(line), "%-12s %12llu %12.2f %7.2f\n",
                  phase_name(static_cast<Phase>(i)),
                  static_cast<unsigned long long>(profile.calls[i]),
                  to_ms(profile.ns[i]), pct(profile.ns[i], profile.total_ns));
    os << line;
  }
  const std::uint64_t attributed = profile.attributed_ns();
  const std::uint64_t other = profile.total_ns > attributed ? profile.total_ns - attributed : 0;
  std::snprintf(line, sizeof(line), "%-12s %12s %12.2f %7.2f\n", "other", "-", to_ms(other),
                pct(other, profile.total_ns));
  os << line;
  std::snprintf(line, sizeof(line), "%-12s %12s %12.2f %7.2f  (coverage %.1f%%)\n", "total",
                "-", to_ms(profile.total_ns), 100.0, 100.0 * profile.coverage());
  os << line;
}

std::string phase_table_json(const PhaseProfile& profile, int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  const std::string close_pad = pad.size() >= 2 ? pad.substr(0, pad.size() - 2) : "";
  std::string out = "{\n";
  char buf[160];
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"calls\": %llu, \"ms\": %.3f},\n",
                  pad.c_str(), phase_name(static_cast<Phase>(i)),
                  static_cast<unsigned long long>(profile.calls[i]), to_ms(profile.ns[i]));
    out += buf;
  }
  const std::uint64_t attributed = profile.attributed_ns();
  const std::uint64_t other = profile.total_ns > attributed ? profile.total_ns - attributed : 0;
  std::snprintf(buf, sizeof(buf), "%s\"other\": {\"ms\": %.3f},\n", pad.c_str(), to_ms(other));
  out += buf;
  std::snprintf(buf, sizeof(buf), "%s\"total\": {\"ms\": %.3f, \"coverage\": %.4f}\n%s}",
                pad.c_str(), to_ms(profile.total_ns), profile.coverage(), close_pad.c_str());
  out += buf;
  return out;
}

}  // namespace rapid::obs
