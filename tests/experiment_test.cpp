#include <gtest/gtest.h>

#include "runner/sweep_executor.h"
#include "sim/experiment.h"

namespace rapid {
namespace {

ScenarioConfig tiny_trace_config() {
  ScenarioConfig config = make_trace_scenario();
  config.days = 2;
  config.dieselnet.fleet_size = 10;
  config.dieselnet.min_buses_per_day = 5;
  config.dieselnet.max_buses_per_day = 6;
  config.dieselnet.day_duration = kSecondsPerHour;
  config.dieselnet.num_routes = 3;
  config.dieselnet.same_route_rate = 3.0;
  config.dieselnet.adjacent_route_rate = 0.5;
  config.dieselnet.mean_opportunity = 64_KB;
  return config;
}

ScenarioConfig tiny_synth_config(MobilityKind kind) {
  ScenarioConfig config =
      kind == MobilityKind::kExponential ? make_exponential_scenario() : make_powerlaw_scenario();
  config.synthetic_runs = 2;
  config.exponential.num_nodes = 8;
  config.exponential.duration = 300;
  config.powerlaw.num_nodes = 8;
  config.powerlaw.duration = 300;
  return config;
}

TEST(Experiment, TraceScenarioInstanceShape) {
  const Scenario scenario(tiny_trace_config());
  EXPECT_EQ(scenario.runs(), 2);
  const Instance inst = scenario.instance(0, 4.0);
  EXPECT_GE(inst.active_nodes.size(), 5u);
  EXPECT_TRUE(inst.schedule.is_sorted());
  // Trace load: 4 pkts/h per ordered pair over 1 h.
  const double pairs =
      static_cast<double>(inst.active_nodes.size()) * (inst.active_nodes.size() - 1);
  EXPECT_NEAR(static_cast<double>(inst.workload.size()), 4.0 * pairs,
              4.0 * pairs * 0.5 + 12);
  // All packets carry the 2.7 h deadline.
  for (const Packet& p : inst.workload.all())
    EXPECT_DOUBLE_EQ(p.deadline - p.created, 2.7 * kSecondsPerHour);
}

TEST(Experiment, SyntheticLoadIsPerDestination) {
  const Scenario scenario(tiny_synth_config(MobilityKind::kExponential));
  const Instance inst = scenario.instance(0, 7.0);
  // 7 per destination per 50 s over 300 s across 8 destinations = 336.
  EXPECT_NEAR(static_cast<double>(inst.workload.size()), 336.0, 90.0);
}

TEST(Experiment, InstancesDeterministicPerRun) {
  const Scenario a(tiny_trace_config());
  const Scenario b(tiny_trace_config());
  const Instance ia = a.instance(1, 2.0);
  const Instance ib = b.instance(1, 2.0);
  EXPECT_EQ(ia.workload.size(), ib.workload.size());
  ASSERT_EQ(ia.schedule.size(), ib.schedule.size());
  for (std::size_t i = 0; i < ia.schedule.size(); ++i)
    EXPECT_DOUBLE_EQ(ia.schedule.meetings()[i].time, ib.schedule.meetings()[i].time);
}

TEST(Experiment, RunsDiffer) {
  const Scenario scenario(tiny_trace_config());
  const Instance r0 = scenario.instance(0, 2.0);
  const Instance r1 = scenario.instance(1, 2.0);
  EXPECT_NE(r0.schedule.size(), r1.schedule.size());
}

TEST(Experiment, PowerlawScenarioWorks) {
  const Scenario scenario(tiny_synth_config(MobilityKind::kPowerlaw));
  const Instance inst = scenario.instance(0, 5.0);
  EXPECT_TRUE(inst.schedule.is_sorted());
  EXPECT_GT(inst.schedule.size(), 0u);
  // Synthetic buffer default per Table 4.
  EXPECT_EQ(scenario.config().buffer_capacity, 100_KB);
}

TEST(Experiment, RunInstanceProducesResult) {
  const Scenario scenario(tiny_synth_config(MobilityKind::kExponential));
  const Instance inst = scenario.instance(0, 4.0);
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const SimResult r = run_instance(scenario, inst, spec);
  EXPECT_EQ(r.total_packets, inst.workload.size());
  EXPECT_GT(r.delivered, 0u);
}

TEST(Experiment, SweepLoadShape) {
  const Scenario scenario(tiny_synth_config(MobilityKind::kExponential));
  RunSpec spec;
  spec.protocol = ProtocolKind::kRandom;
  const Series series = runner::SweepExecutor(1).load_sweep(scenario, {2.0, 6.0}, {spec})[0];
  ASSERT_EQ(series.x.size(), 2u);
  ASSERT_EQ(series.cells.size(), 2u);
  EXPECT_EQ(series.cells[0].size(), 2u);  // one per run
  // Higher load => more packets in the cell totals.
  EXPECT_GT(series.cells[1][0].total_packets, series.cells[0][0].total_packets);
}

TEST(Experiment, SweepBufferOverridesCapacity) {
  const Scenario scenario(tiny_synth_config(MobilityKind::kPowerlaw));
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const Series series =
      runner::SweepExecutor(1).buffer_sweep(scenario, 10.0, {4_KB, 64_KB}, {spec})[0];
  ASSERT_EQ(series.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(series.x[0], 4.0);   // axis in KB
  EXPECT_DOUBLE_EQ(series.x[1], 64.0);
  const Summary small = summarize_cell(series.cells[0], extract_delivery_rate);
  const Summary large = summarize_cell(series.cells[1], extract_delivery_rate);
  EXPECT_GE(large.mean + 0.1, small.mean);  // more storage never much worse
}

TEST(Experiment, SummarizeCellAggregates) {
  SimResult a;
  a.delivered = 1;
  a.avg_delay = 10;
  SimResult b;
  b.delivered = 1;
  b.avg_delay = 20;
  const Summary s = summarize_cell({a, b}, extract_avg_delay);
  EXPECT_EQ(s.n, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 15.0);

  // Runs with no deliveries carry no avg-delay signal and are skipped
  // instead of dragging the mean toward zero.
  SimResult starved;
  starved.total_packets = 3;
  const Summary guarded = summarize_cell({a, b, starved}, extract_avg_delay);
  EXPECT_EQ(guarded.n, 2u);
  EXPECT_DOUBLE_EQ(guarded.mean, 15.0);
}

TEST(Experiment, ProtocolParamsFollowScenario) {
  const Scenario trace(tiny_trace_config());
  EXPECT_DOUBLE_EQ(trace.protocol_params().rapid_prior_meeting_time, kSecondsPerHour);
  const Scenario synth(tiny_synth_config(MobilityKind::kExponential));
  EXPECT_DOUBLE_EQ(synth.protocol_params().rapid_prior_meeting_time, 300.0);
}

TEST(Experiment, BadRunIndexThrows) {
  const Scenario scenario(tiny_trace_config());
  EXPECT_THROW(scenario.instance(2, 1.0), std::out_of_range);
  EXPECT_THROW(scenario.instance(-1, 1.0), std::out_of_range);
}

}  // namespace
}  // namespace rapid
