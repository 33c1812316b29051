// The event-driven simulation core.
//
// A Simulation replaces the old one-shot run_simulation() loop with an
// explicit object: an event queue merged from pluggable EventSources
// (packet generation and a schedule's meetings are built in; streaming
// feeds can be added), advanced with step() / run_until(t), observed
// mid-run through metric taps, and finished into the SimResult the figures
// are built from. The legacy run_simulation() in sim/engine.h is a thin
// wrapper: construct, run(), finish().
//
// Meetings reach the engine one way: a MobilityModel, pulled one contact at
// a time through a MobilityEventSource (mobility/mobility_model.h). A
// recorded MeetingSchedule is replayed through the same source
// (make_replay_model), so capacity and meeting totals always accrue per
// dispatched meeting and a mid-run report counts only the meetings that
// have happened. Streaming a generator keeps peak memory independent of
// the total contact count.
//
// Determinism contract: an event is taken from the earliest-time source,
// ties broken by registration order. The built-in workload source registers
// before the meeting source, which reproduces the legacy merge rule "a
// packet created at time t is generated before a meeting at time t".
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dtn/contact_session.h"
#include "dtn/metrics.h"
#include "dtn/packet.h"
#include "dtn/router.h"
#include "dtn/schedule.h"
#include "fault/fault_config.h"
#include "mobility/mobility_model.h"
#include "obs/obs.h"

namespace rapid {

struct SimConfig {
  // Buffer capacity is a router property (captured by the factory); the
  // engine itself only needs the contact policy (which includes the link
  // interruption/asymmetry policy).
  ContactConfig contact;
  // Observability knobs for this run (profiling clock, trace capacity).
  // Counters are always collected (they cost an array increment); the
  // defaults keep clocks and tracing off.
  obs::ObsConfig obs;
  // Node crash/recover fault injection (fault/fault_config.h). When enabled,
  // the Simulation registers a fault event source itself (after the
  // built-ins, before any caller-added feed): crashed nodes miss their
  // contacts and generate nothing, their buffers are dropped or preserved
  // per policy, and recovering nodes rejoin with stale routing state. The
  // default leaves nodes immortal and adds zero hot-path cost.
  NodeFaultConfig node_faults;
};

struct SimEvent {
  enum class Kind { kPacket, kMeeting, kFault };
  Kind kind = Kind::kPacket;
  Time time = 0;
  const Packet* packet = nullptr;  // kPacket
  Meeting meeting;                 // kMeeting
  FaultEvent fault;                // kFault
};

// A time-ordered stream of events. peek() returns the next event (stable
// until pop()) or null when drained; times must be non-decreasing.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual const SimEvent* peek() = 0;
  virtual void pop() = 0;
};

// Built-in sources, exposed so tests and custom drivers can compose them.
std::unique_ptr<EventSource> make_workload_source(const PacketPool& workload);
// Adapts a streaming MobilityModel into a kMeeting event source. The
// borrowing overload leaves ownership with the caller (who must keep the
// model alive for the run); the owning overload carries it.
std::unique_ptr<EventSource> make_mobility_source(MobilityModel& model);
std::unique_ptr<EventSource> make_mobility_source(std::unique_ptr<MobilityModel> model);

// The experiment horizon and fleet size a Simulation needs when there is no
// schedule to read them from.
struct SimBounds {
  int num_nodes = 0;
  Time duration = 0;
};

class Simulation {
 public:
  // Invoked after each processed event; the collector gives mid-run access to
  // deliveries/bytes without waiting for finish().
  using MetricTap = std::function<void(const SimEvent&, const MetricsCollector&)>;

  // Replays a sorted schedule (borrowed; it must outlive the run) through
  // the built-in meeting source; throws std::invalid_argument if unsorted.
  Simulation(const MeetingSchedule& schedule, const PacketPool& workload,
             const RouterFactory& factory, const SimConfig& config);

  // No built-in meeting source: add one with
  // add_event_source(make_mobility_source(...)) — the run_simulation
  // overload in sim/engine.h does this for you.
  Simulation(SimBounds bounds, const PacketPool& workload, const RouterFactory& factory,
             const SimConfig& config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Extra event feeds beyond the built-ins; add before stepping. Events past
  // the duration are skipped like the built-ins' are.
  void add_event_source(std::unique_ptr<EventSource> source);
  void add_tap(MetricTap tap);

  // Processes the next event; returns false when every source is drained.
  bool step();
  // Processes all events with time <= t (and leaves later ones queued).
  void run_until(Time t);
  // Drains every source.
  void run();

  // Time of the last processed event (0 before the first step).
  Time now() const { return now_; }
  bool done() const;
  int meetings_run() const { return meeting_index_; }
  Time duration() const { return duration_; }
  int num_nodes() const { return num_nodes_; }
  // Open-ended drivers (the service engine) move the horizon as contacts
  // stream in; events past the current duration are skipped, exactly as on a
  // fixed-horizon run. A longer horizon also releases fault events that the
  // merge had held back past the old one.
  void set_duration(Time duration) { duration_ = duration; }

  Router& router(NodeId node) { return *routers_[static_cast<std::size_t>(node)]; }
  const MetricsCollector& metrics() const { return metrics_; }

  // Fault-injection view: whether `node` is currently up (always true when
  // node faults are disabled).
  bool node_up(NodeId node) const {
    return node_up_.empty() || node_up_[static_cast<std::size_t>(node)] != 0;
  }

  // This run's observability context (counters, trace ring, phase profile).
  // Installed thread-locally around every step; mutable so the const
  // finish() can flush router-side probes into it.
  obs::ObsContext& obs() const { return obs_; }

  // Builds the aggregate SimResult (with the ObsReport attached). Call once,
  // after the run.
  SimResult finish() const;

  // Interim aggregate as of time `t`, without finishing the run (no obs
  // flush; the run continues unperturbed).
  SimResult report_at(Time t) const { return metrics_.report_at(workload_, t); }

  // --- snapshot/restore -------------------------------------------------------
  // Serializes clock, meeting counter, metrics and every router's state.
  // Must be called between events (contacts run to completion inside
  // dispatch, so there is never open-contact state to capture). Deterministic
  // event sources are not serialized: the restoring side re-creates them
  // from the same inputs and fast-forwards.
  void save_state(BinWriter& out);
  // Restores into a freshly constructed simulation (same schedule/bounds,
  // workload, factory and config). Call fast_forward_sources afterwards with
  // the time the saved run had been driven to.
  void load_state(BinReader& in);
  // Drops every queued event with time <= cutoff from every source — the
  // events a run driven with run_until(cutoff) would already have consumed.
  void fast_forward_sources(Time cutoff);

 private:
  // `meetings` (null for a bounds-only run) registers right after the
  // workload source and before the fault source.
  Simulation(std::unique_ptr<MobilityModel> meetings, SimBounds bounds,
             const PacketPool& workload, const RouterFactory& factory,
             const SimConfig& config);

  // (source index, event) of the next event to dispatch, or nullopt.
  struct Next {
    std::size_t source;
    const SimEvent* event;
  };
  std::optional<Next> peek_next();
  void dispatch(const SimEvent& event);
  // Pops events with time <= limit until one is admitted and dispatches it;
  // false when no such event is left.
  bool step_until(Time limit);

  // Pump-time half of fault handling: updates the up/down mask on kFault
  // events and decides whether an event is admitted for dispatch. Meetings
  // with a down endpoint and packets generated at a down node are suppressed
  // here (a suppressed meeting still counts as a transfer opportunity — the
  // radios were scheduled to meet; the node was just dead).
  bool admit_event(const SimEvent& event);
  // Router-side crash/recover effects (buffer drop per policy, accounting),
  // run when the fault event is dispatched.
  void apply_fault_effects(const FaultEvent& fault);

  // Index of the fault source. Its stream is unbounded, so peek_next clips
  // it at the current duration instead of pop-and-skipping forever. npos
  // when node faults are disabled.
  std::size_t fault_source_ = static_cast<std::size_t>(-1);
  const PacketPool& workload_;
  SimConfig config_;
  int num_nodes_ = 0;
  Time duration_ = 0;

  MetricsCollector metrics_;
  mutable obs::ObsContext obs_;
  SimContext ctx_;
  RouterOracle oracle_;
  // Contact-processing scratch shared by this simulation's routers (contacts
  // run strictly sequentially, so one arena serves every node).
  ScratchArena arena_;
  std::vector<std::unique_ptr<Router>> routers_;

  std::vector<std::unique_ptr<EventSource>> sources_;
  std::vector<MetricTap> taps_;

  Time now_ = 0;
  int meeting_index_ = 0;
  // Per-node up/down mask, maintained at pump time by admit_event. Empty
  // when node faults are disabled (node_up() then answers true for free).
  std::vector<std::uint8_t> node_up_;
};

}  // namespace rapid
