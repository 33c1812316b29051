#include "dtn/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/binio.h"

namespace rapid {

double SimResult::delay_of(const Packet& p) const {
  const Time t = delivery_time.at(static_cast<std::size_t>(p.id));
  if (t == kTimeInfinity) return kTimeInfinity;
  return t - p.created;
}

bool SimResult::is_delivered(PacketId id) const {
  return delivery_time.at(static_cast<std::size_t>(id)) != kTimeInfinity;
}

void MetricsCollector::begin(const PacketPool& pool) {
  delivery_time_.assign(pool.size(), kTimeInfinity);
  data_bytes_ = 0;
  metadata_bytes_ = 0;
  capacity_bytes_ = 0;
  meetings_ = 0;
  drops_ = 0;
  ack_purges_ = 0;
  partial_transfers_ = 0;
  partial_bytes_ = 0;
  crashes_ = 0;
  recoveries_ = 0;
  meetings_suppressed_ = 0;
  fault_lost_packets_ = 0;
  corrupted_transfers_ = 0;
  corrupted_bytes_ = 0;
}

void MetricsCollector::record_delivery(PacketId id, Time when) {
  auto& slot = delivery_time_.at(static_cast<std::size_t>(id));
  if (slot != kTimeInfinity)
    throw std::logic_error("MetricsCollector: duplicate delivery recorded");
  slot = when;
}

void MetricsCollector::record_drop(NodeId /*node*/) { ++drops_; }
void MetricsCollector::record_ack_purge(NodeId /*node*/) { ++ack_purges_; }

bool MetricsCollector::is_delivered(PacketId id) const {
  return delivery_time_.at(static_cast<std::size_t>(id)) != kTimeInfinity;
}

Time MetricsCollector::delivery_time(PacketId id) const {
  return delivery_time_.at(static_cast<std::size_t>(id));
}

void MetricsCollector::save(BinWriter& out) const {
  out.tag("METR");
  std::uint64_t delivered = 0;
  for (Time t : delivery_time_) delivered += t != kTimeInfinity ? 1 : 0;
  out.u64(delivered);
  for (std::size_t id = 0; id < delivery_time_.size(); ++id) {
    if (delivery_time_[id] == kTimeInfinity) continue;
    out.u64(id);
    out.f64(delivery_time_[id]);
  }
  out.i64(data_bytes_);
  out.i64(metadata_bytes_);
  out.i64(capacity_bytes_);
  out.u64(meetings_);
  out.u64(drops_);
  out.u64(ack_purges_);
  out.u64(partial_transfers_);
  out.i64(partial_bytes_);
  out.u64(crashes_);
  out.u64(recoveries_);
  out.u64(meetings_suppressed_);
  out.u64(fault_lost_packets_);
  out.u64(corrupted_transfers_);
  out.i64(corrupted_bytes_);
}

void MetricsCollector::load(BinReader& in) {
  in.expect_tag("METR");
  const std::uint64_t delivered = in.u64();
  for (std::uint64_t i = 0; i < delivered; ++i) {
    const std::uint64_t id = in.u64();
    if (id >= delivery_time_.size()) BinReader::fail("delivery record outside the packet pool");
    delivery_time_[id] = in.f64();
  }
  data_bytes_ = in.i64();
  metadata_bytes_ = in.i64();
  capacity_bytes_ = in.i64();
  meetings_ = in.u64();
  drops_ = in.u64();
  ack_purges_ = in.u64();
  partial_transfers_ = in.u64();
  partial_bytes_ = in.i64();
  crashes_ = in.u64();
  recoveries_ = in.u64();
  meetings_suppressed_ = in.u64();
  fault_lost_packets_ = in.u64();
  corrupted_transfers_ = in.u64();
  corrupted_bytes_ = in.i64();
}

SimResult MetricsCollector::finalize(const PacketPool& pool, Time end_time) const {
  SimResult r;
  r.total_packets = pool.size();
  r.delivery_time = delivery_time_;
  r.data_bytes = data_bytes_;
  r.metadata_bytes = metadata_bytes_;
  r.capacity_bytes = capacity_bytes_;
  r.meetings = meetings_;
  r.drops = drops_;
  r.ack_purges = ack_purges_;
  r.partial_transfers = partial_transfers_;
  r.partial_bytes = partial_bytes_;
  r.crashes = crashes_;
  r.recoveries = recoveries_;
  r.meetings_suppressed = meetings_suppressed_;
  r.fault_lost_packets = fault_lost_packets_;
  r.corrupted_transfers = corrupted_transfers_;
  r.corrupted_bytes = corrupted_bytes_;

  double delay_sum = 0;
  double delay_sum_all = 0;
  double max_delay = 0;
  std::size_t within_deadline = 0;
  for (const Packet& p : pool.all()) {
    const Time t = delivery_time_[static_cast<std::size_t>(p.id)];
    if (t != kTimeInfinity) {
      const double d = t - p.created;
      ++r.delivered;
      delay_sum += d;
      delay_sum_all += d;
      max_delay = std::max(max_delay, d);
      if (t <= p.deadline) ++within_deadline;
    } else {
      delay_sum_all += std::max(0.0, end_time - p.created);
    }
  }
  if (r.total_packets > 0) {
    r.delivery_rate = static_cast<double>(r.delivered) / static_cast<double>(r.total_packets);
    r.deadline_rate =
        static_cast<double>(within_deadline) / static_cast<double>(r.total_packets);
    r.avg_delay_with_undelivered = delay_sum_all / static_cast<double>(r.total_packets);
  }
  if (r.delivered > 0) r.avg_delay = delay_sum / static_cast<double>(r.delivered);
  r.max_delay = max_delay;

  if (r.capacity_bytes > 0) {
    r.channel_utilization = static_cast<double>(r.data_bytes + r.metadata_bytes) /
                            static_cast<double>(r.capacity_bytes);
    r.metadata_over_capacity =
        static_cast<double>(r.metadata_bytes) / static_cast<double>(r.capacity_bytes);
  }
  if (r.data_bytes > 0)
    r.metadata_over_data =
        static_cast<double>(r.metadata_bytes) / static_cast<double>(r.data_bytes);
  return r;
}

}  // namespace rapid
