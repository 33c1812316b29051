// The event merge's execution-shape invariants: stepping one event at a
// time and stopping run_until() — inside a burst of same-time events, or
// part-way through a lazily pulled mobility stream, for every protocol —
// must reproduce the byte-identical SimResult and engine snapshot of a
// one-shot run().
//
// Some test names predate the removal of the timer wheel, dispatch batching
// and in-run sharding; they now pin the same properties on the single serial
// linear merge.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dtn/workload.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "util/binio.h"

namespace rapid {
namespace {

struct RunOutput {
  SimResult result;
  std::string snapshot;
};

RunOutput finish_and_snapshot(Simulation& sim) {
  RunOutput out;
  out.result = sim.finish();
  std::ostringstream bytes;
  BinWriter writer(bytes);
  sim.save_state(writer);
  out.snapshot = bytes.str();
  return out;
}

void expect_bit_identical(const RunOutput& baseline, const RunOutput& other,
                          const std::string& label) {
  EXPECT_EQ(baseline.result.total_packets, other.result.total_packets) << label;
  EXPECT_EQ(baseline.result.delivered, other.result.delivered) << label;
  EXPECT_EQ(baseline.result.avg_delay, other.result.avg_delay) << label;
  EXPECT_EQ(baseline.result.max_delay, other.result.max_delay) << label;
  EXPECT_EQ(baseline.result.deadline_rate, other.result.deadline_rate) << label;
  EXPECT_EQ(baseline.result.data_bytes, other.result.data_bytes) << label;
  EXPECT_EQ(baseline.result.metadata_bytes, other.result.metadata_bytes) << label;
  EXPECT_EQ(baseline.result.capacity_bytes, other.result.capacity_bytes) << label;
  EXPECT_EQ(baseline.result.drops, other.result.drops) << label;
  EXPECT_EQ(baseline.result.meetings, other.result.meetings) << label;
  EXPECT_EQ(baseline.result.delivery_time, other.result.delivery_time) << label;
  ASSERT_FALSE(baseline.snapshot.empty()) << label;
  EXPECT_EQ(baseline.snapshot == other.snapshot, true)
      << label << ": engine snapshot bytes diverged";
}

// A run on a streamed mobility source: meetings are pulled from the model
// one contact at a time, so a run_until() stop leaves the model mid-stream.
std::unique_ptr<Simulation> make_streamed(const Scenario& scenario, const Instance& instance,
                                          ProtocolKind kind = ProtocolKind::kRapid) {
  ProtocolParams params = scenario.protocol_params();
  const RouterFactory factory =
      make_protocol_factory(kind, params, scenario.config().buffer_capacity);
  SimConfig sim;
  sim.contact.link = scenario.config().link;
  sim.contact.link.seed ^= instance.link_seed;
  auto simulation = std::make_unique<Simulation>(
      SimBounds{instance.num_nodes, instance.duration}, instance.workload, factory, sim);
  simulation->add_event_source(make_mobility_source(instance.make_model()));
  return simulation;
}

TEST(EventCore, SteppedRunUntilOverStreamedMobilityMatchesOneShot) {
  ScenarioConfig config = make_powerlaw_scenario();
  config.stream_mobility = true;
  config.synthetic_runs = 1;
  const Scenario scenario(config);
  const Instance instance = scenario.instance(0, 2.0);
  ASSERT_TRUE(static_cast<bool>(instance.make_model));

  const std::unique_ptr<Simulation> one_shot = make_streamed(scenario, instance);
  one_shot->run();
  const RunOutput baseline = finish_and_snapshot(*one_shot);
  EXPECT_GT(baseline.result.meetings, 0u);

  const std::unique_ptr<Simulation> stepped = make_streamed(scenario, instance);
  constexpr int kSlices = 23;
  for (int k = 1; k <= kSlices; ++k) {
    const Time stop = instance.duration * k / kSlices;
    stepped->run_until(stop);
    EXPECT_LE(stepped->now(), stop);
  }
  stepped->run();
  expect_bit_identical(baseline, finish_and_snapshot(*stepped), "stepped run_until");
}

// Single-stepping the lazily pulled stream: step() dispatches exactly one
// event per call, pulling the next contact from the model only when the merge
// needs it, and the stepped RAPID run is bit-identical to run().
TEST(EventCore, ShardedWheelWithBatchingMatchesSerialPoll) {
  ScenarioConfig config = make_powerlaw_scenario();
  config.stream_mobility = true;
  config.synthetic_runs = 1;
  const Scenario scenario(config);
  const Instance instance = scenario.instance(0, 2.0);
  ASSERT_TRUE(static_cast<bool>(instance.make_model));

  const std::unique_ptr<Simulation> one_shot = make_streamed(scenario, instance);
  one_shot->run();
  const RunOutput baseline = finish_and_snapshot(*one_shot);
  EXPECT_GT(baseline.result.meetings, 0u);

  const std::unique_ptr<Simulation> stepped = make_streamed(scenario, instance);
  std::size_t dispatched = 0;
  stepped->add_tap([&](const SimEvent&, const MetricsCollector&) { ++dispatched; });
  std::size_t steps = 0;
  while (stepped->step()) {
    ++steps;
    ASSERT_EQ(dispatched, steps) << "step " << steps << " dispatched more or less than one event";
  }
  EXPECT_TRUE(stepped->done());
  EXPECT_EQ(steps, baseline.result.meetings + baseline.result.total_packets);
  expect_bit_identical(baseline, finish_and_snapshot(*stepped), "single-stepped");
}

// Every protocol in the registry, stopped and resumed over the streamed
// source at short 61 s slices (many stops per contact burst), reproduces its
// own one-shot run bit for bit: a router whose RNG stream, meeting matrix,
// ack table or buffer order depended on where run_until() stopped would
// diverge in the snapshot even where the aggregate metrics agree.
TEST(ShardMatrix, SteppedRunUntilMatchesSerialSingleShot) {
  ScenarioConfig config = make_powerlaw_scenario();
  config.stream_mobility = true;
  config.synthetic_runs = 1;
  const Scenario scenario(config);
  const Instance instance = scenario.instance(0, 2.0);
  ASSERT_TRUE(static_cast<bool>(instance.make_model));

  for (const ProtocolKind kind :
       {ProtocolKind::kRapid, ProtocolKind::kRapidGlobal, ProtocolKind::kRapidLocal,
        ProtocolKind::kMaxProp, ProtocolKind::kSprayWait, ProtocolKind::kProphet,
        ProtocolKind::kRandom, ProtocolKind::kRandomAcks, ProtocolKind::kEpidemic,
        ProtocolKind::kDirect}) {
    const std::string label = to_string(kind);
    const std::unique_ptr<Simulation> one_shot = make_streamed(scenario, instance, kind);
    one_shot->run();
    const RunOutput baseline = finish_and_snapshot(*one_shot);
    EXPECT_GT(baseline.result.meetings, 0u) << label;

    const std::unique_ptr<Simulation> stepped = make_streamed(scenario, instance, kind);
    for (Time stop = 61; stop < instance.duration; stop += 61) {
      stepped->run_until(stop);
      EXPECT_LE(stepped->now(), stop) << label;
    }
    stepped->run();
    expect_bit_identical(baseline, finish_and_snapshot(*stepped), label);
  }
}

// --- Synthetic tie world ----------------------------------------------------

// Meetings at multiples of 50 s with several sharing one timestamp, a
// mid-interval meeting at +25 s, and packets created at exactly the meeting
// times: every stop time below lands inside, on, or just past such a burst.
struct TieWorld {
  MeetingSchedule schedule;
  PacketPool workload;
};

TieWorld make_tie_world() {
  TieWorld world;
  world.schedule.num_nodes = 6;
  world.schedule.duration = 600;
  for (int k = 1; k <= 11; ++k) {
    const Time t = static_cast<Time>(k) * 50.0;
    world.schedule.add(0, 1, t, 16_KB);
    world.schedule.add(2, 3, t, 16_KB);
    if (k % 2 == 0) world.schedule.add(4, 5, t, 16_KB);
    world.schedule.add(1, 2, t + 25.0, 16_KB);
  }
  world.schedule.sort();
  for (int k = 0; k <= 11; ++k) {
    Packet p;
    p.src = static_cast<NodeId>(k % 6);
    p.dst = static_cast<NodeId>((k + 3) % 6);
    p.size = 1_KB;
    p.created = static_cast<Time>(k) * 50.0;
    world.workload.add(p);
  }
  return world;
}

RouterFactory tie_factory() {
  ProtocolParams params;
  params.rapid_prior_meeting_time = 600;
  params.rapid_prior_opportunity = 16_KB;
  params.rapid_delay_cap = 1200;
  return make_protocol_factory(ProtocolKind::kRapid, params, -1);
}

RunOutput run_tie_world_one_shot(const TieWorld& world) {
  Simulation simulation(world.schedule, world.workload, tie_factory(), SimConfig{});
  simulation.run();
  return finish_and_snapshot(simulation);
}

// Number of tie-world events (packets plus meetings) with time <= t.
std::size_t events_at_or_before(const TieWorld& world, Time t) {
  std::size_t n = 0;
  for (const Meeting& m : world.schedule.meetings())
    if (m.time <= t) ++n;
  for (const Packet& p : world.workload.all())
    if (p.created <= t) ++n;
  return n;
}

TEST(EventCore, RunUntilStopsMidBatchAndResumesSeamlessly) {
  const TieWorld world = make_tie_world();
  const RunOutput baseline = run_tie_world_one_shot(world);
  EXPECT_GT(baseline.result.meetings, 0u);
  EXPECT_GT(baseline.result.delivered, 0u);

  Simulation stepped(world.schedule, world.workload, tie_factory(), SimConfig{});
  std::size_t dispatched = 0;
  stepped.add_tap([&](const SimEvent&, const MetricsCollector&) { ++dispatched; });
  // 30 falls between bursts, 75 is a lone mid-interval meeting, 100 lands
  // exactly on a packet-plus-three-meetings tie, 130 is just past one.
  // run_until must take the whole burst at its limit and nothing after it.
  for (const Time stop : {30.0, 75.0, 100.0, 130.0, 333.0}) {
    stepped.run_until(stop);
    EXPECT_LE(stepped.now(), stop);
    EXPECT_EQ(dispatched, events_at_or_before(world, stop)) << "stop=" << stop;
  }
  stepped.run();
  expect_bit_identical(baseline, finish_and_snapshot(stepped), "stepped run_until");
}

// step() dispatches exactly one event per call, same-time ties included, so
// the step count equals the number of dispatched events; the stepped run is
// bit-identical to run().
TEST(EventCore, StepDrainsWholeBatchesAndFewerOfThem) {
  const TieWorld world = make_tie_world();
  const RunOutput baseline = run_tie_world_one_shot(world);

  Simulation s(world.schedule, world.workload, tie_factory(), SimConfig{});
  std::size_t dispatched = 0;
  s.add_tap([&](const SimEvent&, const MetricsCollector&) { ++dispatched; });
  std::size_t steps = 0;
  while (s.step()) {
    ++steps;
    EXPECT_EQ(dispatched, steps) << "step " << steps << " dispatched more or less than one event";
  }
  EXPECT_TRUE(s.done());
  EXPECT_EQ(steps, world.schedule.size() + world.workload.size());
  expect_bit_identical(baseline, finish_and_snapshot(s), "stepped");
}

}  // namespace
}  // namespace rapid
