#include <gtest/gtest.h>

#include <cmath>

#include "core/utility.h"

namespace rapid {
namespace {

const UtilityParams kParams{1000.0};  // delay cap 1000 s

TEST(Utility, CappedExpectedDelay) {
  EXPECT_DOUBLE_EQ(capped_expected_delay(0.01, kParams), 100.0);
  EXPECT_DOUBLE_EQ(capped_expected_delay(0.0, kParams), 1000.0);  // capped infinity
  EXPECT_DOUBLE_EQ(capped_expected_delay(1.0, kParams), 1.0);
}

TEST(Utility, ExpectedTotalDelayAddsAge) {
  EXPECT_DOUBLE_EQ(expected_total_delay(50.0, 0.01, kParams), 150.0);
}

TEST(MarginalUtility, AvgDelayReduction) {
  // One replica with d = 100 (rate .01); adding d_new = 100 halves A.
  const double du = marginal_utility(RoutingMetric::kAvgDelay, 0.01, 100.0, 0.0,
                                     kTimeInfinity, kParams);
  EXPECT_NEAR(du, 100.0 - 50.0, 1e-12);
}

TEST(MarginalUtility, FirstReplicaEscapesTheCap) {
  // No existing path: A capped at 1000; one replica with d = 10 drops it to 10.
  const double du = marginal_utility(RoutingMetric::kAvgDelay, 0.0, 10.0, 0.0,
                                     kTimeInfinity, kParams);
  EXPECT_NEAR(du, 990.0, 1e-12);
}

TEST(MarginalUtility, DiminishingReturnsInReplicaCount) {
  // Property (§3.3: a packet with 6 replicas has lower marginal utility than
  // one with 2): marginal gain decreases as the existing rate grows.
  double prev = kTimeInfinity;
  for (int k = 1; k <= 6; ++k) {
    const double rate = k * 0.01;  // k replicas of d=100
    const double du = marginal_utility(RoutingMetric::kAvgDelay, rate, 100.0, 0.0,
                                       kTimeInfinity, kParams);
    EXPECT_LT(du, prev);
    EXPECT_GT(du, 0.0);
    prev = du;
  }
}

TEST(MarginalUtility, BetterPeersGiveMoreUtility) {
  // Property: a peer with a shorter direct delay yields a higher gain.
  const double good = marginal_utility(RoutingMetric::kAvgDelay, 0.01, 10.0, 0.0,
                                       kTimeInfinity, kParams);
  const double poor = marginal_utility(RoutingMetric::kAvgDelay, 0.01, 1000.0, 0.0,
                                       kTimeInfinity, kParams);
  EXPECT_GT(good, poor);
  EXPECT_GT(poor, 0.0);
}

TEST(MarginalUtility, UselessReplicaAddsNothing) {
  EXPECT_DOUBLE_EQ(marginal_utility(RoutingMetric::kAvgDelay, 0.01, kTimeInfinity, 0.0,
                                    kTimeInfinity, kParams),
                   0.0);
}

TEST(MarginalUtility, DeadlineMetricIsProbabilityGain) {
  // P(a < 100) with rate .01 = 1-e^-1; adding d_new = 100 doubles the rate.
  const double du = marginal_utility(RoutingMetric::kMissedDeadlines, 0.01, 100.0, 0.0,
                                     100.0, kParams);
  const double expected = (1.0 - std::exp(-2.0)) - (1.0 - std::exp(-1.0));
  EXPECT_NEAR(du, expected, 1e-12);
}

TEST(MarginalUtility, ExpiredDeadlineHasZeroUtility) {
  EXPECT_DOUBLE_EQ(marginal_utility(RoutingMetric::kMissedDeadlines, 0.01, 100.0, 500.0,
                                    0.0, kParams),
                   0.0);
  EXPECT_DOUBLE_EQ(marginal_utility(RoutingMetric::kMissedDeadlines, 0.01, 100.0, 500.0,
                                    -5.0, kParams),
                   0.0);
}

TEST(MarginalUtility, DeadlineGainShrinksWithReplicas) {
  double prev = kTimeInfinity;
  for (int k = 1; k <= 5; ++k) {
    const double du = marginal_utility(RoutingMetric::kMissedDeadlines, k * 0.01, 100.0,
                                       0.0, 50.0, kParams);
    EXPECT_LT(du, prev);
    prev = du;
  }
}

TEST(MarginalUtility, MaxDelayUsesDelayReduction) {
  const double max_metric = marginal_utility(RoutingMetric::kMaxDelay, 0.01, 100.0, 0.0,
                                             kTimeInfinity, kParams);
  const double avg_metric = marginal_utility(RoutingMetric::kAvgDelay, 0.01, 100.0, 0.0,
                                             kTimeInfinity, kParams);
  EXPECT_DOUBLE_EQ(max_metric, avg_metric);
}

TEST(PacketUtility, SignsPerMetric) {
  // Delay metrics: utility is negative expected delay (Eq. 1 / Eq. 3).
  EXPECT_DOUBLE_EQ(packet_utility(RoutingMetric::kAvgDelay, 0.01, 20.0, kTimeInfinity,
                                  kParams),
                   -120.0);
  // Deadline metric: a probability in [0, 1] (Eq. 2).
  const double u = packet_utility(RoutingMetric::kMissedDeadlines, 0.01, 20.0, 100.0,
                                  kParams);
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_DOUBLE_EQ(packet_utility(RoutingMetric::kMissedDeadlines, 0.01, 20.0, 0.0,
                                  kParams),
                   0.0);
}

TEST(Utility, MetricNames) {
  EXPECT_EQ(to_string(RoutingMetric::kAvgDelay), "avg-delay");
  EXPECT_EQ(to_string(RoutingMetric::kMissedDeadlines), "missed-deadlines");
  EXPECT_EQ(to_string(RoutingMetric::kMaxDelay), "max-delay");
  for (const RoutingMetric metric :
       {RoutingMetric::kAvgDelay, RoutingMetric::kMissedDeadlines, RoutingMetric::kMaxDelay})
    EXPECT_EQ(routing_metric_from_string(to_string(metric)), metric) << to_string(metric);
  EXPECT_EQ(routing_metric_from_string("Max_Delay"), RoutingMetric::kMaxDelay);
  EXPECT_EQ(routing_metric_from_string("deadlines"), RoutingMetric::kMissedDeadlines);
  EXPECT_EQ(routing_metric_from_string("throughput"), std::nullopt);
  EXPECT_EQ(routing_metric_from_string(""), std::nullopt);
}

// Parameterized sweep: marginal utility is continuous and positive across a
// broad (rate, d_new) grid for the delay metric.
class MarginalSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MarginalSweep, PositiveAndBoundedByCap) {
  const auto [rate, d_new] = GetParam();
  const double du =
      marginal_utility(RoutingMetric::kAvgDelay, rate, d_new, 0.0, kTimeInfinity, kParams);
  EXPECT_GE(du, 0.0);
  EXPECT_LE(du, kParams.delay_cap);
}

INSTANTIATE_TEST_SUITE_P(
    RateByDelay, MarginalSweep,
    ::testing::Combine(::testing::Values(0.0, 0.001, 0.01, 0.1, 1.0),
                       ::testing::Values(1.0, 10.0, 100.0, 1000.0, 100000.0)));

}  // namespace
}  // namespace rapid
