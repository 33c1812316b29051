// The event merge's execution-shape invariants: stepping one event at a
// time, stopping run_until() inside a burst of same-time events, and sharded
// execution must all reproduce the byte-identical SimResult and engine
// snapshot of a serial one-shot run().
//
// The test names predate the removal of the timer wheel and dispatch
// batching; they now pin the same properties on the single linear merge.
#include <gtest/gtest.h>

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

RunOutput run_powerlaw_stream(const Scenario& scenario, const Instance& instance,
                              int sim_threads) {
  ProtocolParams params = scenario.protocol_params();
  const RouterFactory factory =
      make_protocol_factory(ProtocolKind::kRapid, params, scenario.config().buffer_capacity);
  SimConfig sim;
  sim.contact.charge_metadata = true;
  sim.contact.link = scenario.config().link;
  sim.contact.link.seed ^= instance.link_seed;
  sim.sim_threads = sim_threads;
  if (sim_threads > 1) sim.shard_window = 61;  // many window boundaries
  Simulation simulation(SimBounds{instance.num_nodes, instance.duration}, instance.workload,
                        factory, sim);
  simulation.add_event_source(make_mobility_source(instance.make_model()));
  simulation.run();
  return finish_and_snapshot(simulation);
}

TEST(EventCore, ShardedWheelWithBatchingMatchesSerialPoll) {
  ScenarioConfig config = make_powerlaw_scenario();
  config.stream_mobility = true;
  config.synthetic_runs = 1;
  const Scenario scenario(config);
  const Instance instance = scenario.instance(0, 2.0);
  ASSERT_TRUE(static_cast<bool>(instance.make_model));
  const RunOutput baseline = run_powerlaw_stream(scenario, instance, 1);
  EXPECT_GT(baseline.result.meetings, 0u);
  for (const int threads : {2, 4}) {
    const RunOutput got = run_powerlaw_stream(scenario, instance, threads);
    expect_bit_identical(baseline, got, "threads=" + std::to_string(threads));
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
