#include "obs/metrics_registry.h"

#include <algorithm>
#include <iterator>

namespace rapid::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kContactDataBytes: return "contact.data_bytes";
    case Counter::kContactDeliveries: return "contact.deliveries";
    case Counter::kContactMetadataBytes: return "contact.metadata_bytes";
    case Counter::kContactPartialBytes: return "contact.partial_bytes";
    case Counter::kContactPartialTransfers: return "contact.partial_transfers";
    case Counter::kContactSessions: return "contact.sessions";
    case Counter::kContactTransfers: return "contact.transfers";
    case Counter::kEvictScanned: return "evict.scanned";
    case Counter::kFaultCorruptedBytes: return "fault.corrupted_bytes";
    case Counter::kFaultCorruptedTransfers: return "fault.corrupted_transfers";
    case Counter::kFaultCrashes: return "fault.crashes";
    case Counter::kFaultMeetingsSuppressed: return "fault.meetings_suppressed";
    case Counter::kFaultMetaDegraded: return "fault.meta_degraded";
    case Counter::kFaultPacketsLost: return "fault.packets_lost";
    case Counter::kFaultRecoveries: return "fault.recoveries";
    case Counter::kFaultTailRetries: return "fault.tail_retries";
    case Counter::kMatrixHopEdges: return "matrix.hop_edges";
    case Counter::kMatrixHopRecomputes: return "matrix.hop_recomputes";
    case Counter::kMatrixRowsAccepted: return "matrix.rows_accepted";
    case Counter::kMetaBytesAcks: return "meta.bytes.acks";
    case Counter::kMetaBytesOwn: return "meta.bytes.own";
    case Counter::kMetaBytesRelayed: return "meta.bytes.relayed";
    case Counter::kMetaBytesRows: return "meta.bytes.rows";
    case Counter::kMetaBytesScalar: return "meta.bytes.scalar";
    case Counter::kMobilityPops: return "mobility.pops";
    case Counter::kRouterDrops: return "router.drops";
    case Counter::kServiceContactsIngested: return "service.contacts_ingested";
    case Counter::kServiceQueries: return "service.queries";
    case Counter::kServiceSnapshotBytes: return "service.snapshot_bytes";
    case Counter::kServiceSnapshots: return "service.snapshots";
    case Counter::kSimEventsFault: return "sim.events.fault";
    case Counter::kSimEventsMeeting: return "sim.events.meeting";
    case Counter::kSimEventsPacket: return "sim.events.packet";
    case Counter::kSimEventsSkipped: return "sim.events.skipped";
    case Counter::kTraceDropped: return "trace.dropped";
    case Counter::kUtilityForgets: return "utility.forgets";
    case Counter::kUtilityRateHits: return "utility.rate_hits";
    case Counter::kUtilityRateRecomputes: return "utility.rate_recomputes";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kTraceEvents: return "trace.events";
    case Gauge::kUtilityTrackedPackets: return "utility.tracked_packets";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kContactCapacityBytes: return "contact.capacity_bytes";
    case Hist::kContactTransferBytes: return "contact.transfer_bytes";
    case Hist::kCount: break;
  }
  return "?";
}

namespace {

int bucket_of(std::uint64_t value) {
  int width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width == 0 ? 0 : width - 1;
}

constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount);
constexpr const char* kHistFields[] = {".count", ".max", ".min", ".sum"};
constexpr std::size_t kHistFieldCount = std::size(kHistFields);

// The flattened histogram keys, built once per process: snapshot samples
// view them instead of concatenating a name per snapshot.
const std::array<std::string, kHistCount * kHistFieldCount>& hist_keys() {
  static const auto keys = [] {
    std::array<std::string, kHistCount * kHistFieldCount> out;
    for (std::size_t i = 0; i < kHistCount; ++i)
      for (std::size_t f = 0; f < kHistFieldCount; ++f)
        out[i * kHistFieldCount + f] =
            std::string(hist_name(static_cast<Hist>(i))) + kHistFields[f];
    return out;
  }();
  return keys;
}

}  // namespace

void Histogram::observe(std::uint64_t value) {
  ++buckets[static_cast<std::size_t>(bucket_of(value))];
  if (count == 0 || value < min) min = value;
  if (value > max) max = value;
  ++count;
  sum += value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(counters_.size() + gauges_.size() + hists_.size() * kHistFieldCount);
  for (std::size_t i = 0; i < counters_.size(); ++i)
    snap.samples.push_back({counter_name(static_cast<Counter>(i)), counters_[i]});
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    snap.samples.push_back({gauge_name(static_cast<Gauge>(i)), gauges_[i]});
  const auto& keys = hist_keys();
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const Histogram& h = hists_[i];
    const std::uint64_t values[kHistFieldCount] = {h.count, h.max, h.min, h.sum};
    for (std::size_t f = 0; f < kHistFieldCount; ++f)
      snap.samples.push_back({keys[i * kHistFieldCount + f], values[f]});
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return snap;
}

std::uint64_t MetricsSnapshot::value(std::string_view name) const {
  for (const MetricSample& s : samples)
    if (s.name == name) return s.value;
  return 0;
}

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  std::string out = "{\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += pad;
    out += '"';
    out += samples[i].name;
    out += "\": ";
    out += std::to_string(samples[i].value);
    if (i + 1 < samples.size()) out += ",";
    out += "\n";
  }
  out += pad.substr(0, pad.size() >= 2 ? pad.size() - 2 : 0) + "}";
  return out;
}

}  // namespace rapid::obs
