// Per-phase profiling: scoped RAII timers attributing wall time to the
// simulation core's phases (event-source merge machinery, mobility
// generation, packet generation, routing decisions, data transfer).
//
// Accounting is *exclusive*: entering a nested scope stops the clock of the
// enclosing phase and restarts it on exit, so phase totals never double
// count and they sum to the instrumented span exactly. PhaseProfile::total_ns
// is the wall time of the whole run() (measured around the event loop), so
//   coverage = sum(phase ns) / total_ns
// is the fraction of the run the instrumentation can attribute; the
// remainder prints as "other" in the breakdown table.
//
// Cost model: with profiling disabled a PhaseScope is a thread-local load
// and a branch (and with RAPID_OBS=OFF it compiles away entirely); enabled,
// each scope boundary is one steady_clock read. Profiling never touches
// simulation state, so `--profile` output is bit-identical to an unprofiled
// run — it only watches.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace rapid::obs {

enum class Phase : std::uint8_t {
  kDispatch = 0,   // event-source poll/merge + dispatch bookkeeping
  kMobility = 1,   // MobilityModel contact generation (peek/pop)
  kPacketGen = 2,  // workload packet injection (Router::on_generate)
  kRouting = 3,    // contact open/metadata exchange, next_transfer decisions,
                   // contact_end hooks
  kTransfer = 4,   // copies crossing the air (perform_transfer + loop checks)
  kIngest = 5,     // service engine: contact ingest (tail polls included)
  kQuery = 6,      // service engine: mid-stream queries
  kSnapshot = 7,   // service engine: snapshot save/restore
  kCount
};
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

const char* phase_name(Phase p);

struct PhaseProfile {
  std::array<std::uint64_t, kPhaseCount> ns{};
  std::array<std::uint64_t, kPhaseCount> calls{};
  // Wall time of the instrumented run() span; 0 when never run.
  std::uint64_t total_ns = 0;
  bool enabled = false;

  std::uint64_t attributed_ns() const;
  // attributed / total in [0, 1]; 0 when total_ns == 0.
  double coverage() const;
  void merge(const PhaseProfile& other);
};

// Renders the phase-breakdown table:
//   phase            calls        ms      %
//   routing           1234      812.4   41.2
//   ...
//   other                -       43.1    2.1
//   total                -     1970.9  100.0   (coverage 97.9%)
void print_phase_table(std::ostream& os, const PhaseProfile& profile);
// The same table as a JSON object (stable key order: catalog order plus
// "other"/"total"), embedded by `rapid_bench --metrics`.
std::string phase_table_json(const PhaseProfile& profile, int indent = 2);

}  // namespace rapid::obs
