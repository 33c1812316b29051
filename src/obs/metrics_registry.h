// Metrics registry: named counters/gauges/histograms with near-zero hot-path
// cost. Metric identities are a compile-time catalog (the enums below), so a
// hot-path increment is one array index into a flat slot table — no name
// hashing, no locks, no allocation. One MetricsRegistry instance belongs to
// one run (ObsContext) and is only touched by the thread running it, which
// is why the registry itself never synchronizes.
//
// Snapshots render the slots back into their catalog names in stable
// (lexicographically sorted) key order, so JSON dumps diff cleanly and sweep
// results can join per-run counters with figure cells by key.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace rapid::obs {

// Monotonic event counts.
enum class Counter : std::uint16_t {
  kContactDataBytes,
  kContactDeliveries,
  kContactMetadataBytes,
  kContactPartialBytes,
  kContactPartialTransfers,
  kContactSessions,
  kContactTransfers,
  kEvictScanned,
  kFaultCorruptedBytes,
  kFaultCorruptedTransfers,
  kFaultCrashes,
  kFaultMeetingsSuppressed,
  kFaultMetaDegraded,
  kFaultPacketsLost,
  kFaultRecoveries,
  kFaultTailRetries,
  kMatrixHopEdges,
  kMatrixHopRecomputes,
  kMatrixRowsAccepted,
  kMetaBytesAcks,
  kMetaBytesOwn,
  kMetaBytesRelayed,
  kMetaBytesRows,
  kMetaBytesScalar,
  kMobilityPops,
  kPoolSteals,
  kPoolSubmitted,
  kRouterDrops,
  kServiceContactsIngested,
  kServiceQueries,
  kServiceSnapshotBytes,
  kServiceSnapshots,
  kSimEventsFault,
  kSimEventsMeeting,
  kSimEventsPacket,
  kSimEventsSkipped,
  kTraceDropped,
  kUtilityForgets,
  kUtilityRateHits,
  kUtilityRateRecomputes,
  kCount
};

// Level samples kept as the maximum observed value: high-water marks such as
// tracked-packet table sizes or trace-buffer occupancy.
enum class Gauge : std::uint16_t {
  kPoolMaxQueueDepth,
  kTraceEvents,
  kUtilityTrackedPackets,
  kCount
};

// Power-of-two bucketed distributions. Bucket i counts values whose bit
// width is i (value 0 lands in bucket 0).
enum class Hist : std::uint16_t {
  kContactCapacityBytes,
  kContactTransferBytes,
  kCount
};

const char* counter_name(Counter c);
const char* gauge_name(Gauge g);
const char* hist_name(Hist h);

struct Histogram {
  static constexpr int kBuckets = 64;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void observe(std::uint64_t value);
};

// One flattened (name, value) pair of a snapshot. Histograms flatten into
// .count/.sum/.min/.max keys so the snapshot stays a flat map. The name
// views static catalog storage (the histogram keys are built once per
// process), so a snapshot allocates only its sample vector.
struct MetricSample {
  std::string_view name;
  std::uint64_t value = 0;
};

// Point-in-time flattened view of a registry, keys sorted lexicographically.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  // 0 when the key is absent (never the case for catalog names).
  std::uint64_t value(std::string_view name) const;
  // Renders {"name": value, ...} with the stable key order, indented with
  // `indent` leading spaces per line.
  std::string to_json(int indent = 2) const;
};

class MetricsRegistry {
 public:
  void add(Counter c, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  void gauge_max(Gauge g, std::uint64_t v) {
    auto& slot = gauges_[static_cast<std::size_t>(g)];
    if (v > slot) slot = v;
  }
  void observe(Hist h, std::uint64_t v) { hists_[static_cast<std::size_t>(h)].observe(v); }

  std::uint64_t counter(Counter c) const { return counters_[static_cast<std::size_t>(c)]; }
  std::uint64_t gauge(Gauge g) const { return gauges_[static_cast<std::size_t>(g)]; }
  const Histogram& hist(Hist h) const { return hists_[static_cast<std::size_t>(h)]; }

  MetricsSnapshot snapshot() const;

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)> counters_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
  std::array<Histogram, static_cast<std::size_t>(Hist::kCount)> hists_{};
};

}  // namespace rapid::obs
