// Online service mode: a live routing engine wrapped around the event core.
//
// Batch experiments construct a Simulation, run() it to the horizon and read
// one SimResult. The ServiceEngine keeps the same core open-ended instead:
// contacts are *ingested* incrementally (pushed one at a time, or tailed from
// a growing trace file via TraceTailCursor), the clock is *advanced* on
// demand with advance_to(t), and the live state can be *queried* mid-stream —
// RAPID's per-packet delay/utility estimates, ground-truth replica counts,
// fleet-wide buffer occupancy, interim SimResults — without perturbing the
// run (queries are observationally pure; the determinism tests lock this in).
//
// The whole engine checkpoints to a versioned binary snapshot and restores
// into a bit-identical continuation: restore-then-advance produces the same
// SimResult, the same snapshot bytes, and the same query answers as the
// uninterrupted run (matrix-tested across every protocol). Deterministic
// inputs (the workload, already-consumed contacts) are not serialized — the
// restoring side reconstructs the sources from the same config and
// fast-forwards them to the snapshot clock; only genuinely live state
// (routers, metrics, the pending ingest queue, the tail cursor) travels in
// the file.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dtn/packet.h"
#include "dtn/schedule.h"
#include "mobility/trace_io.h"
#include "sim/protocols.h"
#include "sim/simulation.h"

namespace rapid {

// A contact handed to the engine: same shape as a scheduled meeting, arriving
// from outside the simulation instead of from a materialized schedule.
using ContactEvent = Meeting;

struct ServiceConfig {
  int num_nodes = 0;
  ProtocolKind protocol = ProtocolKind::kRapid;
  ProtocolParams params;
  Bytes buffer_capacity = -1;  // unbounded by default, like Router's
  SimConfig sim;
  // Initial experiment horizon; advance_to() moves it forward with the
  // clock, so the engine never skips an ingested contact as "past the end".
  Time horizon = 0;
};

// Ground truth about one packet, read directly from the fleet (not from any
// router's metadata view): how many buffered replicas exist right now, and
// whether/when the destination received it.
struct PacketStatus {
  int replicas = 0;
  bool delivered = false;
  Time delivery_time = kTimeInfinity;
};

// Fleet-wide occupancy at the current clock.
struct FleetStats {
  Time now = 0;
  int meetings = 0;              // contacts dispatched so far
  std::size_t buffered_copies = 0;  // sum of buffer entries over all nodes
  Bytes buffered_bytes = 0;
  std::size_t delivered = 0;     // packets delivered so far
};

// The live engine. Non-movable: the owned Simulation keeps a reference to
// the engine-owned workload pool.
class ServiceEngine {
 public:
  // Fresh engine at t = 0. The workload is fixed up front (packets are part
  // of the experiment definition, like a batch run's); contacts stream in.
  ServiceEngine(const ServiceConfig& config, PacketPool workload);

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  // --- incremental ingest ---------------------------------------------------

  // Queues one contact. Times must be non-decreasing across calls and must
  // not precede the clock (the event core cannot rewind); node ids must be
  // in range. Throws std::runtime_error on violations.
  void ingest(const ContactEvent& contact);

  // Starts tailing `path` (a rapid-trace v1 file, possibly still being
  // written). poll_tail() re-opens it, parses any complete lines appended
  // since the last poll and ingests the contacts; a partial trailing line is
  // left pending for the next poll unless `file_complete` says the writer is
  // done. Returns the number of contacts ingested.
  void ingest_file_tail(const std::string& path);
  std::size_t poll_tail(bool file_complete = false);
  bool tailing() const { return tail_.has_value(); }
  // Trace-declared fleet size / day length, once the tail has seen them.
  const TraceTailCursor* tail() const { return tail_ ? &*tail_ : nullptr; }

  // --- advancing ------------------------------------------------------------

  // Processes every queued event with time <= t and moves the clock (and the
  // horizon) to t. Monotonic: t must not precede a previous target.
  void advance_to(Time t);
  Time advanced_to() const { return advanced_to_; }
  // Time of the newest ingested contact: everything at strictly earlier
  // times has certainly been fed (ingest is monotonic).
  Time last_ingested() const { return last_ingested_; }

  // --- mid-stream queries (observationally pure) ----------------------------

  // RAPID's current estimate of packet `id`'s total delay / utility, as seen
  // by a router holding a replica (the source's router when none does).
  // Throws for non-RAPID protocols — the baselines don't estimate delay.
  double query_delay(PacketId id) const;
  double query_utility(PacketId id) const;

  // Ground truth, protocol-independent.
  PacketStatus query_status(PacketId id) const;
  FleetStats stats() const;

  // Interim aggregate as of the current clock; the run continues unperturbed
  // and any number of interim reports leaves the final one untouched.
  SimResult report() const { return sim_->report_at(advanced_to_); }
  SimResult finish() const { return sim_->finish(); }

  const PacketPool& workload() const { return workload_; }
  Simulation& sim() { return *sim_; }

  // --- snapshot/restore -------------------------------------------------------

  // Writes the full engine state to `path`. Returns the snapshot size in
  // bytes. The file embeds a config fingerprint; restore() refuses a
  // snapshot taken under a different config or workload.
  std::uint64_t snapshot(const std::string& path);

  // Reconstructs an engine from a snapshot plus the same config and workload
  // it was taken with. `tail_path` re-attaches the tailed trace file when the
  // saved engine was tailing one (the cursor resumes at its saved offset);
  // required exactly when the snapshot carries a tail cursor.
  static std::unique_ptr<ServiceEngine> restore(const std::string& snapshot_path,
                                                const ServiceConfig& config,
                                                PacketPool workload,
                                                const std::string& tail_path = "");

 private:
  // The push feed: a deque of pending contacts exposed to the Simulation as
  // an EventSource. Registered at construction so the restored engine's
  // source layout matches the saved one's.
  class IngestSource final : public EventSource {
   public:
    const SimEvent* peek() override;
    void pop() override { queue_.pop_front(); }
    void push(const Meeting& m) { queue_.push_back(m); }

    std::deque<Meeting> queue_;

   private:
    SimEvent event_;
  };

  // Validation + queueing shared by ingest() and poll_tail() (which hold the
  // obs scope themselves).
  void ingest_impl(const ContactEvent& contact);
  // The router whose view answers delay/utility queries for `p`: the first
  // RAPID holder of a replica, falling back to the source's router; null when
  // the protocol is not RAPID.
  const RapidRouter* rapid_viewer(const Packet& p) const;

  std::uint64_t config_fingerprint() const;
  void save(BinWriter& out);
  void load(BinReader& in, const std::string& tail_path);

  ServiceConfig config_;
  PacketPool workload_;
  std::unique_ptr<Simulation> sim_;
  IngestSource* ingest_ = nullptr;  // owned by sim_
  std::optional<TraceTailCursor> tail_;
  std::vector<Meeting> tail_batch_;  // poll_tail scratch

  Time advanced_to_ = 0;
  Time last_ingested_ = 0;
};

}  // namespace rapid
