// Tests for the event-driven Simulation core: step()/run_until() semantics,
// equivalence with the one-shot run_simulation wrapper, metric taps,
// pluggable event sources, the event merge's tie-break and fault-head
// clipping, and the interrupted/asymmetric link policies end-to-end.
#include <gtest/gtest.h>

#include "dtn/workload.h"
#include "fault/fault_model.h"
#include "mobility/exponential_model.h"
#include "sim/engine.h"
#include "sim/protocols.h"
#include "util/rng.h"

namespace rapid {
namespace {

struct SmallWorld {
  MeetingSchedule schedule;
  PacketPool workload;
};

SmallWorld make_world(std::uint64_t seed, double load = 2.0) {
  ExponentialMobilityConfig mobility;
  mobility.num_nodes = 8;
  mobility.duration = 600;
  mobility.pair_mean_intermeeting = 60;
  mobility.mean_opportunity = 8_KB;
  Rng rng(seed);
  SmallWorld world;
  world.schedule = generate_exponential_schedule(mobility, rng);

  WorkloadConfig wl;
  wl.packets_per_period_per_pair = load;
  wl.load_period = 600;
  wl.duration = 600;
  wl.deadline = 120;
  Rng wrng = rng.split("wl");
  world.workload = generate_workload(wl, 8, wrng);
  return world;
}

RouterFactory factory_for(ProtocolKind kind, Bytes buffer = -1) {
  ProtocolParams params;
  params.rapid_prior_meeting_time = 600;
  params.rapid_prior_opportunity = 8_KB;
  params.rapid_delay_cap = 1200;
  params.prophet_aging_unit = 10;
  return make_protocol_factory(kind, params, buffer);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.partial_transfers, b.partial_transfers);
  EXPECT_EQ(a.partial_bytes, b.partial_bytes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

TEST(Simulation, SteppedRunMatchesOneShotBitIdentically) {
  const SmallWorld world = make_world(21);
  const SimResult one_shot =
      run_simulation(world.schedule, world.workload, factory_for(ProtocolKind::kRapid),
                     SimConfig{});

  Simulation sim(world.schedule, world.workload, factory_for(ProtocolKind::kRapid),
                 SimConfig{});
  std::size_t steps = 0;
  while (sim.step()) ++steps;
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(sim.done());
  expect_identical(one_shot, sim.finish());
}

TEST(Simulation, RunUntilProcessesPrefixThenResumesSeamlessly) {
  const SmallWorld world = make_world(22);
  const SimResult one_shot =
      run_simulation(world.schedule, world.workload, factory_for(ProtocolKind::kRapid),
                     SimConfig{});

  Simulation sim(world.schedule, world.workload, factory_for(ProtocolKind::kRapid),
                 SimConfig{});
  sim.run_until(world.schedule.duration / 3);
  EXPECT_LE(sim.now(), world.schedule.duration / 3);
  const std::size_t mid_deliveries = [&] {
    std::size_t n = 0;
    for (const Packet& p : world.workload.all())
      if (sim.metrics().is_delivered(p.id)) ++n;
    return n;
  }();
  sim.run_until(2 * world.schedule.duration / 3);
  sim.run();
  const SimResult stepped = sim.finish();
  EXPECT_LE(mid_deliveries, stepped.delivered);  // mid-run tap is a prefix view
  expect_identical(one_shot, stepped);
}

TEST(Simulation, TapsFireOncePerEventWithMonotonicTime) {
  const SmallWorld world = make_world(23);
  Simulation sim(world.schedule, world.workload, factory_for(ProtocolKind::kRandom),
                 SimConfig{});
  std::size_t packets = 0, meetings = 0;
  Time last = -1;
  sim.add_tap([&](const SimEvent& event, const MetricsCollector& metrics) {
    (void)metrics;
    EXPECT_GE(event.time, last);
    last = event.time;
    (event.kind == SimEvent::Kind::kPacket ? packets : meetings) += 1;
  });
  sim.run();
  EXPECT_EQ(meetings, static_cast<std::size_t>(sim.meetings_run()));
  EXPECT_GT(packets, 0u);
  EXPECT_EQ(sim.now(), last);
  // Every in-duration event was seen exactly once.
  std::size_t in_duration_packets = 0;
  for (const Packet& p : world.workload.all())
    if (p.created <= world.schedule.duration) ++in_duration_packets;
  EXPECT_EQ(packets, in_duration_packets);
}

// A one-off feed of extra meetings, as a streaming link-schedule source would
// produce them.
class InjectedMeetings : public EventSource {
 public:
  explicit InjectedMeetings(std::vector<Meeting> meetings)
      : meetings_(std::move(meetings)) {}

  const SimEvent* peek() override {
    if (next_ >= meetings_.size()) return nullptr;
    event_.kind = SimEvent::Kind::kMeeting;
    event_.time = meetings_[next_].time;
    event_.meeting = meetings_[next_];
    return &event_;
  }
  void pop() override { ++next_; }

 private:
  std::vector<Meeting> meetings_;
  std::size_t next_ = 0;
  SimEvent event_;
};

TEST(Simulation, PluggableEventSourceDrivesContacts) {
  // The schedule itself carries no meetings; an injected source provides the
  // only contact, which must deliver the packet.
  MeetingSchedule schedule;
  schedule.num_nodes = 2;
  schedule.duration = 100;

  PacketPool workload;
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.size = 1_KB;
  p.created = 1.0;
  workload.add(p);

  Simulation sim(schedule, workload, factory_for(ProtocolKind::kDirect), SimConfig{});
  sim.add_event_source(
      std::make_unique<InjectedMeetings>(std::vector<Meeting>{{0, 1, 10.0, 10_KB}}));
  sim.run();
  EXPECT_EQ(sim.meetings_run(), 1);
  const SimResult r = sim.finish();
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_DOUBLE_EQ(r.delivery_time[0], 10.0);
}

TEST(Simulation, InjectedEventsPastDurationAreDropped) {
  MeetingSchedule schedule;
  schedule.num_nodes = 2;
  schedule.duration = 100;
  PacketPool workload;

  Simulation sim(schedule, workload, factory_for(ProtocolKind::kDirect), SimConfig{});
  sim.add_event_source(
      std::make_unique<InjectedMeetings>(std::vector<Meeting>{{0, 1, 500.0, 10_KB}}));
  sim.run();
  EXPECT_EQ(sim.meetings_run(), 0);
}

TEST(Simulation, InterruptedLinksChargePartialsAndNeverHelp) {
  const SmallWorld world = make_world(24, 1.0);
  const SimResult clean =
      run_simulation(world.schedule, world.workload, factory_for(ProtocolKind::kEpidemic),
                     SimConfig{});
  SimConfig interrupted;
  interrupted.contact.link.interruption_rate = 0.8;
  interrupted.contact.link.min_completion = 0.1;
  interrupted.contact.link.max_completion = 0.6;
  const SimResult cut = run_simulation(
      world.schedule, world.workload, factory_for(ProtocolKind::kEpidemic), interrupted);

  EXPECT_GT(cut.partial_transfers, 0u);
  EXPECT_GT(cut.partial_bytes, 0);
  EXPECT_LE(cut.delivered, clean.delivered);
  EXPECT_LE(cut.data_bytes + cut.metadata_bytes, cut.capacity_bytes);
  // Interruption draws are part of the config, so replays are bit-identical.
  const SimResult replay = run_simulation(
      world.schedule, world.workload, factory_for(ProtocolKind::kEpidemic), interrupted);
  expect_identical(cut, replay);
}

TEST(Simulation, AsymmetricLinksStayDeterministicAndAccounted) {
  const SmallWorld world = make_world(25);
  SimConfig asymmetric;
  asymmetric.contact.link.forward_fraction = 0.8;
  const SimResult a = run_simulation(
      world.schedule, world.workload, factory_for(ProtocolKind::kRapid), asymmetric);
  const SimResult b = run_simulation(
      world.schedule, world.workload, factory_for(ProtocolKind::kRapid), asymmetric);
  expect_identical(a, b);
  EXPECT_GT(a.delivered, 0u);
  EXPECT_LE(a.data_bytes + a.metadata_bytes, a.capacity_bytes);
}

TEST(Simulation, MetricInvariantsHoldUnderLinkPolicies) {
  const SmallWorld world = make_world(26);
  for (const auto& [rate, forward] : {std::pair<double, double>{0.5, -1.0},
                                      std::pair<double, double>{0.0, 0.7},
                                      std::pair<double, double>{0.5, 0.7}}) {
    SimConfig config;
    config.contact.link.interruption_rate = rate;
    config.contact.link.forward_fraction = forward;
    for (ProtocolKind kind : {ProtocolKind::kRapid, ProtocolKind::kMaxProp,
                              ProtocolKind::kSprayWait, ProtocolKind::kProphet,
                              ProtocolKind::kEpidemic, ProtocolKind::kDirect}) {
      SCOPED_TRACE(to_string(kind));
      const SimResult r =
          run_simulation(world.schedule, world.workload, factory_for(kind), config);
      EXPECT_LE(r.delivered, r.total_packets);
      EXPECT_LE(r.data_bytes + r.metadata_bytes, r.capacity_bytes);
      EXPECT_LE(r.partial_bytes, r.data_bytes);
      EXPECT_GE(r.channel_utilization, 0.0);
      EXPECT_LE(r.channel_utilization, 1.0 + 1e-12);
    }
  }
}

TEST(Simulation, LinkPolicyResultsArePinned) {
  // Exact results on the cut, asymmetric and link-fault contact paths, so a
  // change to the transfer loop's budgets, cut or corruption draws cannot
  // pass as "still within the invariants" above. The 4 KB-buffer rows make
  // every protocol but Direct (which never evicts) drop packets, so the
  // eviction path, the oldest-first order's removals and Random's plan are
  // pinned too.
  struct Pin {
    double rate;
    double forward;
    bool faulty;
    Bytes buffer;
    ProtocolKind kind;
    std::size_t delivered;
    Bytes data_bytes;
    Bytes metadata_bytes;
    std::size_t partial_transfers;
    Bytes partial_bytes;
    std::size_t corrupted_transfers;
    std::size_t drops;
  };
  const Pin pins[] = {
      {0.5, -1.0, false, -1, ProtocolKind::kRapid, 109, 555176, 206760, 56, 26792, 0, 0},
      {0.5, -1.0, false, -1, ProtocolKind::kMaxProp, 109, 558565, 122120, 53, 28133, 0, 0},
      {0.5, -1.0, false, -1, ProtocolKind::kSprayWait, 109, 831569, 0, 70, 36945, 0, 0},
      {0.5, -1.0, false, -1, ProtocolKind::kProphet, 109, 733865, 35968, 54, 31401, 0, 0},
      {0.5, -1.0, false, -1, ProtocolKind::kEpidemic, 109, 837616, 0, 67, 35824, 0, 0},
      {0.5, -1.0, false, -1, ProtocolKind::kDirect, 104, 110503, 0, 6, 4007, 0, 0},
      {0.0, 0.7, false, -1, ProtocolKind::kRapid, 110, 526336, 202824, 0, 0, 0, 0},
      {0.0, 0.7, false, -1, ProtocolKind::kMaxProp, 110, 531456, 122168, 0, 0, 0, 0},
      {0.0, 0.7, false, -1, ProtocolKind::kSprayWait, 110, 780288, 0, 0, 0, 0, 0},
      {0.0, 0.7, false, -1, ProtocolKind::kProphet, 110, 661504, 35968, 0, 0, 0, 0},
      {0.0, 0.7, false, -1, ProtocolKind::kEpidemic, 110, 796672, 0, 0, 0, 0, 0},
      {0.0, 0.7, false, -1, ProtocolKind::kDirect, 104, 106496, 0, 0, 0, 0, 0},
      {0.5, 0.7, false, -1, ProtocolKind::kRapid, 109, 519376, 208888, 46, 23760, 0, 0},
      {0.5, 0.7, false, -1, ProtocolKind::kMaxProp, 110, 551146, 122136, 51, 27882, 0, 0},
      {0.5, 0.7, false, -1, ProtocolKind::kSprayWait, 109, 785362, 0, 55, 31698, 0, 0},
      {0.5, 0.7, false, -1, ProtocolKind::kProphet, 110, 669813, 35968, 45, 25717, 0, 0},
      {0.5, 0.7, false, -1, ProtocolKind::kEpidemic, 109, 790733, 0, 55, 31949, 0, 0},
      {0.5, 0.7, false, -1, ProtocolKind::kDirect, 103, 110142, 0, 6, 4670, 0, 0},
      {0.0, -1.0, true, -1, ProtocolKind::kRapid, 110, 671744, 208000, 0, 0, 139, 0},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kRapid, 110, 574464, 200992, 0, 0, 0, 69},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kMaxProp, 106, 587776, 122000, 0, 0, 0, 126},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kSprayWait, 77, 568320, 0, 0, 0, 0, 563},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kProphet, 64, 450560, 35968, 0, 0, 0, 461},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kRandom, 66, 1019904, 0, 0, 0, 0, 1015},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kRandomAcks, 101, 549888, 4800, 0, 0, 0, 106},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kEpidemic, 90, 1143808, 0, 0, 0, 0, 1112},
      {0.0, -1.0, false, 4_KB, ProtocolKind::kDirect, 32, 32768, 0, 0, 0, 0, 0},
  };
  const SmallWorld world = make_world(26);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(to_string(pin.kind) + " rate=" + std::to_string(pin.rate) +
                 " forward=" + std::to_string(pin.forward) +
                 " buffer=" + std::to_string(pin.buffer) + (pin.faulty ? " faulty" : ""));
    SimConfig config;
    config.contact.link.interruption_rate = pin.rate;
    config.contact.link.forward_fraction = pin.forward;
    if (pin.faulty) {
      config.contact.fault.loss_rate = 0.2;
      config.contact.fault.loss_spread = 0.5;
      config.contact.fault.meta_degrade_rate = 0.3;
    }
    const SimResult r =
        run_simulation(world.schedule, world.workload, factory_for(pin.kind, pin.buffer), config);
    EXPECT_EQ(r.delivered, pin.delivered);
    EXPECT_EQ(r.data_bytes, pin.data_bytes);
    EXPECT_EQ(r.metadata_bytes, pin.metadata_bytes);
    EXPECT_EQ(r.partial_transfers, pin.partial_transfers);
    EXPECT_EQ(r.partial_bytes, pin.partial_bytes);
    EXPECT_EQ(r.corrupted_transfers, pin.corrupted_transfers);
    EXPECT_EQ(r.drops, pin.drops);
  }
}

TEST(Simulation, StreamingMobilityBitIdenticalToMaterializedSchedule) {
  // The same exponential mobility reaches the engine two ways: materialized
  // into the world's MeetingSchedule, and pulled lazily through a
  // MobilityEventSource. Every SimResult field — including the accrued
  // capacity/meeting totals — must match bit for bit.
  const SmallWorld world = make_world(31);
  const SimResult materialized =
      run_simulation(world.schedule, world.workload, factory_for(ProtocolKind::kRapid),
                     SimConfig{});

  ExponentialMobilityConfig mobility;
  mobility.num_nodes = 8;
  mobility.duration = 600;
  mobility.pair_mean_intermeeting = 60;
  mobility.mean_opportunity = 8_KB;
  const SimResult streamed =
      run_simulation(make_exponential_model(mobility, Rng(31)), world.workload,
                     factory_for(ProtocolKind::kRapid), SimConfig{});

  expect_identical(materialized, streamed);
  EXPECT_EQ(materialized.capacity_bytes, streamed.capacity_bytes);
  EXPECT_EQ(materialized.meetings, streamed.meetings);
  EXPECT_EQ(materialized.avg_delay, streamed.avg_delay);
  EXPECT_EQ(materialized.channel_utilization, streamed.channel_utilization);
}

// A hand-fed model for merge-order tests at the Simulation level.
class VectorMobilityModel : public MobilityModel {
 public:
  VectorMobilityModel(int num_nodes, Time duration, std::vector<Meeting> meetings)
      : num_nodes_(num_nodes), duration_(duration), meetings_(std::move(meetings)) {}
  int num_nodes() const override { return num_nodes_; }
  Time duration() const override { return duration_; }
  const Meeting* peek() override {
    return next_ < meetings_.size() ? &meetings_[next_] : nullptr;
  }
  void pop() override { ++next_; }

 private:
  int num_nodes_;
  Time duration_;
  std::vector<Meeting> meetings_;
  std::size_t next_ = 0;
};

TEST(Simulation, KWayMergedMobilitySourcesKeepRegistrationOrderOnTies) {
  // Two mobility sources with colliding timestamps: the engine must emit
  // equal-time meetings in source-registration order (the canonical
  // deterministic tie-break), interleaving the rest by time.
  MeetingSchedule empty;
  empty.num_nodes = 6;
  empty.duration = 100;
  PacketPool no_packets;
  Simulation sim(empty, no_packets, factory_for(ProtocolKind::kDirect), SimConfig{});
  sim.add_event_source(make_mobility_source(std::make_unique<VectorMobilityModel>(
      6, 100.0, std::vector<Meeting>{{0, 1, 10.0, 1_KB}, {0, 1, 20.0, 1_KB}})));
  sim.add_event_source(make_mobility_source(std::make_unique<VectorMobilityModel>(
      6, 100.0, std::vector<Meeting>{{2, 3, 5.0, 1_KB}, {2, 3, 10.0, 1_KB}})));

  std::vector<std::pair<Time, NodeId>> order;
  sim.add_tap([&](const SimEvent& event, const MetricsCollector&) {
    ASSERT_EQ(event.kind, SimEvent::Kind::kMeeting);
    order.emplace_back(event.time, event.meeting.a);
  });
  sim.run();
  const std::vector<std::pair<Time, NodeId>> expected = {
      {5.0, 2}, {10.0, 0}, {10.0, 2}, {20.0, 0}};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.meetings_run(), 4);
  // Streamed opportunities count toward the capacity/meeting totals even
  // when the Simulation was constructed with a (here empty) schedule.
  const SimResult r = sim.finish();
  EXPECT_EQ(r.meetings, 4u);
  EXPECT_EQ(r.capacity_bytes, 4_KB);
}

// Exact ties across and within sources: several meetings share each
// timestamp, and a packet is created at exactly each of those times. The
// workload source registers before the meeting source, so a packet created
// at t dispatches before any meeting at t, and same-time meetings dispatch
// in schedule order.
TEST(Simulation, ExactTiesDispatchPacketsFirstThenMeetingsInScheduleOrder) {
  MeetingSchedule schedule;
  schedule.num_nodes = 6;
  schedule.duration = 600;
  for (int k = 1; k <= 11; ++k) {
    const Time t = static_cast<Time>(k) * 50.0;
    schedule.add(0, 1, t, 16_KB);
    schedule.add(2, 3, t, 16_KB);
    if (k % 2 == 0) schedule.add(4, 5, t, 16_KB);
    schedule.add(1, 2, t + 25.0, 16_KB);
  }
  schedule.sort();
  PacketPool workload;
  for (int k = 0; k <= 11; ++k) {
    Packet p;
    p.src = static_cast<NodeId>(k % 6);
    p.dst = static_cast<NodeId>((k + 3) % 6);
    p.size = 1_KB;
    p.created = static_cast<Time>(k) * 50.0;
    workload.add(p);
  }

  Simulation sim(schedule, workload, factory_for(ProtocolKind::kRapid), SimConfig{});
  std::vector<SimEvent> order;
  sim.add_tap([&](const SimEvent& event, const MetricsCollector&) { order.push_back(event); });
  sim.run();

  std::vector<Meeting> meetings;
  std::size_t packets = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SimEvent& e = order[i];
    if (e.kind == SimEvent::Kind::kMeeting) {
      meetings.push_back(e.meeting);
      continue;
    }
    ASSERT_EQ(e.kind, SimEvent::Kind::kPacket);
    ++packets;
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_FALSE(order[j].kind == SimEvent::Kind::kMeeting && order[j].time == e.time)
          << "a meeting at t=" << e.time << " dispatched before a packet created then";
  }
  EXPECT_EQ(packets, workload.size());
  ASSERT_EQ(meetings.size(), schedule.size());
  for (std::size_t i = 0; i < meetings.size(); ++i) {
    const Meeting& want = schedule.meetings()[i];
    EXPECT_EQ(meetings[i].time, want.time) << "meeting " << i;
    EXPECT_EQ(meetings[i].a, want.a) << "meeting " << i;
    EXPECT_EQ(meetings[i].b, want.b) << "meeting " << i;
  }
}

// The fault stream is unbounded, so the merge holds its head back while it
// lies past the horizon instead of popping it as a straggler. Extending the
// horizon with set_duration (what the service engine's advance_to does)
// releases it.
TEST(Simulation, FaultHeadPastHorizonStaysParkedUntilSetDurationExtendsIt) {
  SimConfig config;
  config.node_faults.mean_uptime = 100;
  config.node_faults.mean_downtime = 50;
  const FaultModel model(config.node_faults, 2);
  const FaultEvent first = model.peek();
  ASSERT_GT(first.time, 0.0);
  ASSERT_FALSE(first.up);  // nodes start up, so the first transition is a crash

  PacketPool no_packets;
  Simulation sim(SimBounds{2, first.time / 2}, no_packets, factory_for(ProtocolKind::kDirect),
                 config);
  std::vector<SimEvent> faults;
  sim.add_tap([&](const SimEvent& event, const MetricsCollector&) {
    if (event.kind == SimEvent::Kind::kFault) faults.push_back(event);
  });
  sim.run();
  EXPECT_TRUE(faults.empty());
  EXPECT_TRUE(sim.done());
  EXPECT_TRUE(sim.node_up(first.node));

  sim.set_duration(first.time);
  EXPECT_FALSE(sim.done());
  sim.run();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].time, first.time);
  EXPECT_EQ(faults[0].fault.node, first.node);
  EXPECT_FALSE(sim.node_up(first.node));
  EXPECT_EQ(sim.now(), first.time);
}

TEST(Simulation, MobilitySourceRejectsOutOfOrderModels) {
  MeetingSchedule empty;
  empty.num_nodes = 4;
  empty.duration = 100;
  PacketPool no_packets;
  Simulation sim(empty, no_packets, factory_for(ProtocolKind::kDirect), SimConfig{});
  sim.add_event_source(make_mobility_source(std::make_unique<VectorMobilityModel>(
      4, 100.0, std::vector<Meeting>{{0, 1, 50.0, 1_KB}, {0, 1, 10.0, 1_KB}})));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, StreamingBoundsValidateAndReportDuration) {
  PacketPool no_packets;
  EXPECT_THROW(Simulation(SimBounds{0, 100.0}, no_packets,
                          factory_for(ProtocolKind::kDirect), SimConfig{}),
               std::invalid_argument);
  Simulation sim(SimBounds{3, 250.0}, no_packets, factory_for(ProtocolKind::kDirect),
                 SimConfig{});
  EXPECT_EQ(sim.duration(), 250.0);
  EXPECT_TRUE(sim.done());  // no sources beyond the (empty) workload
}

TEST(Simulation, RejectsUnsortedScheduleAndNullSource) {
  SmallWorld world = make_world(27);
  ASSERT_GE(world.schedule.size(), 2u);
  auto& meetings = world.schedule.mutable_meetings();
  std::swap(meetings.front(), meetings.back());
  EXPECT_THROW(Simulation(world.schedule, world.workload,
                          factory_for(ProtocolKind::kDirect), SimConfig{}),
               std::invalid_argument);

  const SmallWorld ok = make_world(28);
  Simulation sim(ok.schedule, ok.workload, factory_for(ProtocolKind::kDirect), SimConfig{});
  EXPECT_THROW(sim.add_event_source(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace rapid
