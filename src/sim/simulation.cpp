#include "sim/simulation.h"

#include <stdexcept>

#include "fault/fault_model.h"
#include "util/binio.h"

namespace rapid {

namespace {

class WorkloadSource : public EventSource {
 public:
  explicit WorkloadSource(const PacketPool& workload) : packets_(&workload.all()) {}

  const SimEvent* peek() override {
    if (next_ >= packets_->size()) return nullptr;
    const Packet& p = (*packets_)[next_];
    event_.kind = SimEvent::Kind::kPacket;
    event_.time = p.created;
    event_.packet = &p;
    return &event_;
  }

  void pop() override { ++next_; }

 private:
  const std::vector<Packet>* packets_;
  std::size_t next_ = 0;
  SimEvent event_;
};

// Pulls contacts from a MobilityModel one at a time; enforces the model's
// non-decreasing-time contract so a misbehaving model fails loudly instead
// of corrupting the deterministic merge.
class MobilityEventSource : public EventSource {
 public:
  explicit MobilityEventSource(MobilityModel& model) : model_(&model) {}
  explicit MobilityEventSource(std::unique_ptr<MobilityModel> model)
      : owned_(std::move(model)), model_(owned_.get()) {
    if (model_ == nullptr)
      throw std::invalid_argument("make_mobility_source: null model");
  }

  const SimEvent* peek() override {
    RAPID_OBS_PHASE(kMobility);  // lazy generation happens inside peek()
    const Meeting* m = model_->peek();
    if (m == nullptr) return nullptr;
    if (m->time < last_time_)
      throw std::logic_error("MobilityModel emitted meetings out of time order");
    event_.kind = SimEvent::Kind::kMeeting;
    event_.time = m->time;
    event_.meeting = *m;
    return &event_;
  }

  void pop() override {
    RAPID_OBS_PHASE(kMobility);
    RAPID_OBS_INC(kMobilityPops);
    const Meeting* m = model_->peek();
    if (m != nullptr) last_time_ = m->time;
    model_->pop();
  }

 private:
  std::unique_ptr<MobilityModel> owned_;
  MobilityModel* model_;
  Time last_time_ = 0;
  SimEvent event_;
};

}  // namespace

std::unique_ptr<EventSource> make_workload_source(const PacketPool& workload) {
  return std::make_unique<WorkloadSource>(workload);
}

std::unique_ptr<EventSource> make_mobility_source(MobilityModel& model) {
  return std::make_unique<MobilityEventSource>(model);
}

std::unique_ptr<EventSource> make_mobility_source(std::unique_ptr<MobilityModel> model) {
  return std::make_unique<MobilityEventSource>(std::move(model));
}

Simulation::Simulation(const MeetingSchedule& schedule, const PacketPool& workload,
                       const RouterFactory& factory, const SimConfig& config)
    : Simulation(make_replay_model(schedule), SimBounds{schedule.num_nodes, schedule.duration},
                 workload, factory, config) {}

Simulation::Simulation(SimBounds bounds, const PacketPool& workload,
                       const RouterFactory& factory, const SimConfig& config)
    : Simulation(nullptr, bounds, workload, factory, config) {}

Simulation::Simulation(std::unique_ptr<MobilityModel> meetings, SimBounds bounds,
                       const PacketPool& workload, const RouterFactory& factory,
                       const SimConfig& config)
    : workload_(workload),
      config_(config),
      num_nodes_(bounds.num_nodes),
      duration_(bounds.duration),
      obs_(config.obs) {
  if (num_nodes_ < 1) throw std::invalid_argument("Simulation: need >= 1 node");

  metrics_.begin(workload);
  ctx_.pool = &workload_;
  ctx_.metrics = &metrics_;
  ctx_.num_nodes = num_nodes_;
  oracle_.reset(num_nodes_);
  ctx_.oracle = &oracle_;
  ctx_.arena = &arena_;

  routers_.reserve(static_cast<std::size_t>(num_nodes_));
  for (NodeId n = 0; n < num_nodes_; ++n) {
    routers_.push_back(factory(n, ctx_));
    oracle_.set(n, routers_.back().get());
  }

  // Registration order is the tie-break order: packets before meetings.
  sources_.push_back(make_workload_source(workload_));
  if (meetings != nullptr) sources_.push_back(make_mobility_source(std::move(meetings)));
  // The fault source registers after the built-ins and before any
  // caller-added feed, on both the fresh and the restoring side, so the
  // source layout (and with it the tie-break order) is a pure function of
  // the config.
  if (config_.node_faults.enabled()) {
    sources_.push_back(make_fault_source(config_.node_faults, num_nodes_));
    fault_source_ = sources_.size() - 1;
    node_up_.assign(static_cast<std::size_t>(num_nodes_), 1);
  }
}

void Simulation::add_event_source(std::unique_ptr<EventSource> source) {
  if (source == nullptr)
    throw std::invalid_argument("Simulation::add_event_source: null source");
  sources_.push_back(std::move(source));
}

void Simulation::add_tap(MetricTap tap) { taps_.push_back(std::move(tap)); }

// The event merge: a linear scan over every source's head. A run has at most
// four sources (workload, mobility, faults, service ingest), and finding the
// next event is well under 1% of a run's wall time, so no priority structure
// pays for itself — and nothing is indexed that could go stale when a
// drained source refills (service ingest).
std::optional<Simulation::Next> Simulation::peek_next() {
  std::optional<Next> best;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const SimEvent* event = sources_[i]->peek();
    if (event == nullptr) continue;
    // The fault stream is unbounded; clip it at the horizon here instead of
    // letting the skip loop pop crash events forever.
    if (i == fault_source_ && event->time > duration_) continue;
    // Strict less-than keeps the earliest-registered source on ties.
    if (!best.has_value() || event->time < best->event->time) best = Next{i, event};
  }
  return best;
}

bool Simulation::admit_event(const SimEvent& event) {
  if (node_up_.empty()) return true;  // node faults disabled
  switch (event.kind) {
    case SimEvent::Kind::kFault:
      node_up_[static_cast<std::size_t>(event.fault.node)] = event.fault.up ? 1 : 0;
      return true;  // router-side effects run at dispatch
    case SimEvent::Kind::kPacket:
      if (node_up(event.packet->src)) return true;
      // Generated at a dead node: the packet is lost before it ever exists
      // in any buffer (it stays in the pool and counts as undelivered).
      metrics_.record_fault_lost_packet();
      RAPID_OBS_INC(kFaultPacketsLost);
      return false;
    case SimEvent::Kind::kMeeting: {
      const Meeting& m = event.meeting;
      if (node_up(m.a) && node_up(m.b)) return true;
      // The opportunity existed; a dead endpoint just missed it, so it still
      // counts toward the capacity and meeting totals.
      metrics_.record_meeting(m.capacity);
      metrics_.record_suppressed_meeting();
      RAPID_OBS_INC(kFaultMeetingsSuppressed);
      return false;
    }
  }
  return true;
}

void Simulation::apply_fault_effects(const FaultEvent& fault) {
  if (fault.up) {
    // Recovery: the node rejoins with whatever state survived the crash —
    // meeting estimates and metadata views are stale until contacts refresh
    // them, which is the point of the experiment.
    metrics_.record_recovery();
    RAPID_OBS_INC(kFaultRecoveries);
    RAPID_OBS_TRACE(kNodeRecover, fault.time, fault.node, kNoNode, kNoPacket, 0);
    return;
  }
  metrics_.record_crash();
  RAPID_OBS_INC(kFaultCrashes);
  RAPID_OBS_TRACE(kNodeCrash, fault.time, fault.node, kNoNode, kNoPacket,
                  config_.node_faults.drop_buffers ? 1 : 0);
  routers_[static_cast<std::size_t>(fault.node)]->on_crash(
      config_.node_faults.drop_buffers, fault.time);
}

void Simulation::dispatch(const SimEvent& event) {
  now_ = event.time;
  if (event.kind == SimEvent::Kind::kPacket) {
    RAPID_OBS_INC(kSimEventsPacket);
    RAPID_OBS_TRACE(kPacketCreate, now_, event.packet->src, event.packet->dst,
                    event.packet->id, event.packet->size);
    RAPID_OBS_PHASE(kPacketGen);
    routers_[static_cast<std::size_t>(event.packet->src)]->on_generate(*event.packet);
  } else if (event.kind == SimEvent::Kind::kFault) {
    RAPID_OBS_INC(kSimEventsFault);
    apply_fault_effects(event.fault);
  } else {
    RAPID_OBS_INC(kSimEventsMeeting);
    const Meeting& m = event.meeting;
    metrics_.record_meeting(m.capacity);
    run_contact(*routers_[static_cast<std::size_t>(m.a)],
                *routers_[static_cast<std::size_t>(m.b)], m, meeting_index_++,
                config_.contact, workload_, metrics_);
  }
  for (const MetricTap& tap : taps_) tap(event, metrics_);
}

bool Simulation::step_until(Time limit) {
  while (true) {
    const std::optional<Next> next = peek_next();
    if (!next.has_value() || next->event->time > limit) return false;
    const SimEvent event = *next->event;
    sources_[next->source]->pop();
    // Events past the day end are dropped, exactly like the legacy merge loop
    // (a day's stragglers carry no weight in the figures).
    if (event.time > duration_) {
      RAPID_OBS_INC(kSimEventsSkipped);
      continue;
    }
    if (!admit_event(event)) continue;
    dispatch(event);
    return true;
  }
}

bool Simulation::step() {
  const obs::ContextScope obs_scope(&obs_);
  RAPID_OBS_PHASE(kDispatch);
  return step_until(kTimeInfinity);
}

void Simulation::run_until(Time t) {
  const obs::ContextScope obs_scope(&obs_);
  const std::uint64_t start = obs_.profile.enabled ? obs::monotonic_ns() : 0;
  {
    RAPID_OBS_PHASE(kDispatch);
    while (step_until(t)) {
    }
  }
  if (obs_.profile.enabled) obs_.profile.total_ns += obs::monotonic_ns() - start;
}

void Simulation::run() { run_until(kTimeInfinity); }

bool Simulation::done() const {
  // Events past the day end will be skipped by step(), and source times are
  // non-decreasing, so a source whose next event is past the duration is
  // effectively drained.
  for (const auto& source : sources_) {
    const SimEvent* event = source->peek();
    if (event != nullptr && event->time <= duration_) return false;
  }
  return true;
}

void Simulation::save_state(BinWriter& out) {
  out.tag("SIMU");
  out.f64(now_);
  out.i64(meeting_index_);
  // The up/down mask is live state: the fault source itself is deterministic
  // and gets fast-forwarded, but the transitions it already emitted are
  // only recorded here.
  out.u64(node_up_.size());
  for (std::uint8_t up : node_up_) out.u8(up);
  metrics_.save(out);
  out.u64(routers_.size());
  for (const auto& router : routers_) router->save_state(out);
}

void Simulation::load_state(BinReader& in) {
  in.expect_tag("SIMU");
  now_ = in.f64();
  meeting_index_ = static_cast<int>(in.i64());
  if (in.u64() != node_up_.size())
    BinReader::fail("fault configuration differs from the snapshot's");
  for (std::uint8_t& up : node_up_) up = in.u8();
  metrics_.load(in);
  if (in.u64() != routers_.size())
    BinReader::fail("fleet size differs from the snapshot's");
  for (const auto& router : routers_) router->load_state(in);
}

void Simulation::fast_forward_sources(Time cutoff) {
  // Per-source skipping is equivalent to replaying the merge: run_until pops
  // every event with time <= cutoff from every source, in whatever order —
  // including past-duration events, which it pops and then skips. The merge
  // re-peeks every source on the next step, so the moved cursors need no
  // further bookkeeping.
  const obs::ContextScope obs_scope(&obs_);
  for (const auto& source : sources_) {
    while (true) {
      const SimEvent* event = source->peek();
      if (event == nullptr || event->time > cutoff) break;
      source->pop();
    }
  }
}

SimResult Simulation::finish() const {
  // Routers flush their internal probe counters (utility-cache hit/miss
  // tallies etc.) here, while they are still alive — they are destroyed
  // after finish(), which is why the flush cannot live in their destructors.
  for (const auto& router : routers_) router->flush_obs(obs_);
  SimResult result = metrics_.finalize(workload_, duration_);
  result.obs = std::make_shared<const obs::ObsReport>(obs_.report());
  return result;
}

}  // namespace rapid
