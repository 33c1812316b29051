// Cross-protocol integration checks on a reduced but realistic scenario:
// the qualitative relationships §6 reports must hold on fixed seeds.
#include <gtest/gtest.h>

#include <map>

#include "runner/sweep_executor.h"
#include "sim/experiment.h"
#include "stats/moments.h"
#include "stats/ttest.h"

namespace rapid {
namespace {

ScenarioConfig integration_trace() {
  // The bench-scale DieselNet geometry, trimmed to two days for test speed.
  ScenarioConfig config = make_trace_scenario();
  config.days = 2;
  config.seed = 1234;
  return config;
}

double mean_metric(const Scenario& scenario, ProtocolKind protocol, RoutingMetric metric,
                   double load, MetricExtractor extract) {
  RunSpec spec;
  spec.protocol = protocol;
  spec.metric = metric;
  const Series series = runner::SweepExecutor(1).load_sweep(scenario, {load}, {spec})[0];
  return summarize_cell(series.cells[0], extract).mean;
}

TEST(Integration, RapidBeatsRandomOnAverageDelay) {
  const Scenario scenario(integration_trace());
  const double rapid_delay = mean_metric(scenario, ProtocolKind::kRapid,
                                         RoutingMetric::kAvgDelay, 8.0, extract_avg_delay);
  const double random_delay = mean_metric(scenario, ProtocolKind::kRandom,
                                          RoutingMetric::kAvgDelay, 8.0, extract_avg_delay);
  EXPECT_LT(rapid_delay, random_delay * 1.05);
}

TEST(Integration, RapidDeliversMoreThanRandomUnderLoad) {
  const Scenario scenario(integration_trace());
  const double rapid_rate = mean_metric(scenario, ProtocolKind::kRapid,
                                        RoutingMetric::kAvgDelay, 12.0,
                                        extract_delivery_rate);
  const double random_rate = mean_metric(scenario, ProtocolKind::kRandom,
                                         RoutingMetric::kAvgDelay, 12.0,
                                         extract_delivery_rate);
  EXPECT_GE(rapid_rate, random_rate * 0.95);
}

TEST(Integration, GlobalChannelNoWorseThanInBand) {
  const Scenario scenario(integration_trace());
  const double in_band = mean_metric(scenario, ProtocolKind::kRapid,
                                     RoutingMetric::kAvgDelay, 8.0, extract_avg_delay);
  const double global = mean_metric(scenario, ProtocolKind::kRapidGlobal,
                                    RoutingMetric::kAvgDelay, 8.0, extract_avg_delay);
  EXPECT_LE(global, in_band * 1.15);
}

TEST(Integration, ComponentOrderingOfFig14) {
  // Fig 14: Random -> Random+acks -> RAPID-local -> RAPID should not degrade
  // (each component adds information). Allow slack for noise on 3 days.
  const Scenario scenario(integration_trace());
  const double random_delay = mean_metric(scenario, ProtocolKind::kRandom,
                                          RoutingMetric::kAvgDelay, 10.0,
                                          extract_avg_delay);
  const double acks_delay = mean_metric(scenario, ProtocolKind::kRandomAcks,
                                        RoutingMetric::kAvgDelay, 10.0, extract_avg_delay);
  const double rapid_delay = mean_metric(scenario, ProtocolKind::kRapid,
                                         RoutingMetric::kAvgDelay, 10.0, extract_avg_delay);
  EXPECT_LE(acks_delay, random_delay * 1.10);
  EXPECT_LE(rapid_delay, acks_delay * 1.10);
}

TEST(Integration, DeadlineMetricImprovesDeadlineRate) {
  // Routing *for* the deadline metric should beat routing for average delay
  // on the deadline metric itself (the point of intentional routing).
  ScenarioConfig config = integration_trace();
  config.deadline = 0.4 * kSecondsPerHour;  // tight deadline
  const Scenario scenario(config);
  const double tuned = mean_metric(scenario, ProtocolKind::kRapid,
                                   RoutingMetric::kMissedDeadlines, 10.0,
                                   extract_deadline_rate);
  const double untuned = mean_metric(scenario, ProtocolKind::kRandom,
                                     RoutingMetric::kAvgDelay, 10.0,
                                     extract_deadline_rate);
  EXPECT_GE(tuned, untuned * 0.95);
}

TEST(Integration, MetadataFractionIsSmall) {
  // Table 3 reports metadata at a tiny fraction of bandwidth (0.002) and of
  // data (0.017); our reproduction should stay the same order of magnitude.
  const Scenario scenario(integration_trace());
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const Series series = runner::SweepExecutor(1).load_sweep(scenario, {4.0}, {spec})[0];
  const Summary over_capacity = summarize_cell(series.cells[0], extract_metadata_over_capacity);
  const Summary over_data = summarize_cell(series.cells[0], extract_metadata_over_data);
  EXPECT_LT(over_capacity.mean, 0.08);
  EXPECT_LT(over_data.mean, 0.5);
}

TEST(Integration, PairedTTestRapidVsRandomPerPairDelays) {
  // §6.2.1 compares per source-destination pair mean delays with a paired
  // t-test; reproduce the methodology end to end.
  const Scenario scenario(integration_trace());
  const Instance inst = scenario.instance(0, 8.0);

  RunSpec rapid_spec;
  rapid_spec.protocol = ProtocolKind::kRapid;
  const SimResult rapid_result = run_instance(scenario, inst, rapid_spec);
  RunSpec random_spec;
  random_spec.protocol = ProtocolKind::kRandom;
  const SimResult random_result = run_instance(scenario, inst, random_spec);

  std::map<std::pair<NodeId, NodeId>, std::pair<RunningMoments, RunningMoments>> pairs;
  for (const Packet& p : inst.workload.all()) {
    const double rapid_delay = rapid_result.delay_of(p);
    const double random_delay = random_result.delay_of(p);
    if (rapid_delay == kTimeInfinity || random_delay == kTimeInfinity) continue;
    auto& [a, b] = pairs[{p.src, p.dst}];
    a.add(rapid_delay);
    b.add(random_delay);
  }
  std::vector<double> rapid_means, random_means;
  for (auto& [key, values] : pairs) {
    if (values.first.count() == 0) continue;
    rapid_means.push_back(values.first.mean());
    random_means.push_back(values.second.mean());
  }
  ASSERT_GT(rapid_means.size(), 10u);
  const PairedTTestResult t = paired_t_test(rapid_means, random_means);
  ASSERT_TRUE(t.valid);
  // RAPID must not be significantly AND materially worse on the packets both
  // protocols delivered (the conditional comparison is biased against the
  // protocol that delivers more, so allow small positive differences).
  RunningMoments overall;
  for (double d : random_means) overall.add(d);
  if (t.p_value < 0.05 && t.mean_difference > 0) {
    EXPECT_LT(t.mean_difference, 0.05 * overall.mean());
  }
}

TEST(Integration, SyntheticScenarioRapidCompetitive) {
  ScenarioConfig config = make_powerlaw_scenario();
  config.synthetic_runs = 2;
  config.powerlaw.num_nodes = 10;
  config.powerlaw.duration = 300;
  config.seed = 77;
  const Scenario scenario(config);
  const double rapid_delay = mean_metric(scenario, ProtocolKind::kRapid,
                                         RoutingMetric::kAvgDelay, 10.0, extract_avg_delay);
  const double random_delay = mean_metric(scenario, ProtocolKind::kRandom,
                                          RoutingMetric::kAvgDelay, 10.0, extract_avg_delay);
  EXPECT_LT(rapid_delay, random_delay * 1.2);
}

}  // namespace
}  // namespace rapid
