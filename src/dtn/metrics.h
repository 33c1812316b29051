// Per-run measurement: delivery events, byte accounting, and the aggregate
// quantities the paper's figures plot.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dtn/packet.h"
#include "util/types.h"

namespace rapid {

class BinReader;  // util/binio.h
class BinWriter;

namespace obs {
struct ObsReport;  // obs/obs.h
}

// Aggregates for one simulated day (§6.1: each day is an independent
// experiment; undelivered packets at day end are lost).
struct SimResult {
  std::size_t total_packets = 0;
  std::size_t delivered = 0;
  double delivery_rate = 0;

  double avg_delay = 0;              // delivered packets only (Figs 4, 16, 19, 22)
  double avg_delay_with_undelivered = 0;  // undelivered charged residence time (Fig 13)
  double max_delay = 0;              // delivered packets only (Figs 6, 17, 20, 23)
  double deadline_rate = 0;          // delivered within per-packet deadline / total

  Bytes data_bytes = 0;
  Bytes metadata_bytes = 0;
  Bytes capacity_bytes = 0;          // sum of transfer-opportunity sizes
  double channel_utilization = 0;    // (data + metadata) / capacity
  double metadata_over_capacity = 0; // Table 3 row "Meta-data size/bandwidth"
  double metadata_over_data = 0;     // Table 3 row "Meta-data size/data size"

  std::size_t drops = 0;
  std::size_t ack_purges = 0;
  std::size_t meetings = 0;

  // Interrupted-contact accounting: copies cut mid-air are discarded by the
  // receiver but their bytes are charged (and included in data_bytes).
  std::size_t partial_transfers = 0;
  Bytes partial_bytes = 0;

  // Fault-injection accounting (src/fault/): node crash/recover events,
  // meetings a dead endpoint missed, packets generated at a dead node, and
  // copies corrupted on the air (charged like partials, included in
  // data_bytes, never received). All zero on fault-free runs.
  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  std::size_t meetings_suppressed = 0;
  std::size_t fault_lost_packets = 0;
  std::size_t corrupted_transfers = 0;
  Bytes corrupted_bytes = 0;

  // delivery_time[id] = absolute delivery time, or kTimeInfinity.
  std::vector<Time> delivery_time;

  // What the run's observability layer saw (counters, phase profile, trace):
  // populated by Simulation::finish(), shared because SimResults are copied
  // through the sweep plumbing. Never feeds figure math — it only watches.
  std::shared_ptr<const obs::ObsReport> obs;

  // Helpers over the raw per-packet data.
  double delay_of(const Packet& p) const;  // infinity if undelivered
  bool is_delivered(PacketId id) const;
};

class MetricsCollector {
 public:
  // Resets every total and sizes the delivery table to the pool. Capacity
  // and meeting totals then accrue via record_meeting() as contacts arrive.
  void begin(const PacketPool& pool);

  // One transfer opportunity, counted when it happens.
  void record_meeting(Bytes capacity) {
    capacity_bytes_ += capacity;
    ++meetings_;
  }

  void record_delivery(PacketId id, Time when);
  void record_data_transfer(Bytes bytes) { data_bytes_ += bytes; }
  void record_metadata(Bytes bytes) { metadata_bytes_ += bytes; }
  // A copy cut mid-air: charged to the channel, never received.
  void record_partial_transfer(Bytes bytes) {
    data_bytes_ += bytes;
    partial_bytes_ += bytes;
    ++partial_transfers_;
  }
  void record_drop(NodeId node);
  void record_ack_purge(NodeId node);

  // Fault-injection events (see SimResult's fault block).
  void record_crash() { ++crashes_; }
  void record_recovery() { ++recoveries_; }
  void record_suppressed_meeting() { ++meetings_suppressed_; }
  void record_fault_lost_packet() { ++fault_lost_packets_; }
  // A copy corrupted on the air: charged to the channel, never received.
  void record_corrupted_transfer(Bytes bytes) {
    data_bytes_ += bytes;
    corrupted_bytes_ += bytes;
    ++corrupted_transfers_;
  }

  bool is_delivered(PacketId id) const;
  Time delivery_time(PacketId id) const;

  // Builds the aggregate view; `end_time` is the day end used to charge
  // undelivered packets their in-system residence time.
  SimResult finalize(const PacketPool& pool, Time end_time) const;

  // Interim aggregate view of a still-running simulation as of time `t`.
  // Pure: finalize reads nothing destructively, so any number of mid-stream
  // reports leaves the eventual final report untouched (regression-tested).
  SimResult report_at(const PacketPool& pool, Time t) const { return finalize(pool, t); }

  // Snapshot/restore. Delivery times are stored sparsely (delivered packets
  // only); the id-indexed table itself is sized by begin() on the restoring
  // side before load() runs.
  void save(BinWriter& out) const;
  void load(BinReader& in);

 private:
  std::vector<Time> delivery_time_;
  Bytes data_bytes_ = 0;
  Bytes metadata_bytes_ = 0;
  Bytes capacity_bytes_ = 0;
  std::size_t meetings_ = 0;
  std::size_t drops_ = 0;
  std::size_t ack_purges_ = 0;
  std::size_t partial_transfers_ = 0;
  Bytes partial_bytes_ = 0;
  std::size_t crashes_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t meetings_suppressed_ = 0;
  std::size_t fault_lost_packets_ = 0;
  std::size_t corrupted_transfers_ = 0;
  Bytes corrupted_bytes_ = 0;
};

}  // namespace rapid
