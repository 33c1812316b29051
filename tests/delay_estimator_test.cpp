#include <gtest/gtest.h>

#include <cmath>

#include "core/delay_estimator.h"

namespace rapid {
namespace {

TEST(MeetingsNeeded, HeadOfQueueNeedsOneMeeting) {
  // The corrected form: even with nothing ahead, delivering the packet
  // itself takes one meeting.
  EXPECT_EQ(meetings_needed(0, 1_KB, 100_KB), 1u);
  // The literal paper form returns zero here — kept for the ablation.
  EXPECT_EQ(meetings_needed_literal(0, 100_KB), 0u);
}

TEST(MeetingsNeeded, CeilingDivision) {
  EXPECT_EQ(meetings_needed(99_KB, 1_KB, 100_KB), 1u);
  EXPECT_EQ(meetings_needed(100_KB, 1_KB, 100_KB), 2u);
  EXPECT_EQ(meetings_needed(199_KB, 1_KB, 100_KB), 2u);
  EXPECT_EQ(meetings_needed_literal(100_KB, 100_KB), 1u);
  EXPECT_EQ(meetings_needed_literal(101_KB, 100_KB), 2u);
}

TEST(MeetingsNeeded, DegenerateOpportunity) {
  EXPECT_EQ(meetings_needed(1_KB, 1_KB, 0), std::numeric_limits<std::size_t>::max());
  EXPECT_THROW(meetings_needed(-1, 1_KB, 1_KB), std::invalid_argument);
  EXPECT_THROW(meetings_needed(0, 0, 1_KB), std::invalid_argument);
}

TEST(DirectDeliveryDelay, ErlangMeanViaExponentialApproximation) {
  // d = E[M] * n (the exponential approximation keeps the Erlang mean).
  EXPECT_DOUBLE_EQ(direct_delivery_delay(3, 100.0), 300.0);
  EXPECT_EQ(direct_delivery_delay(1, kTimeInfinity), kTimeInfinity);
  EXPECT_EQ(direct_delivery_delay(std::numeric_limits<std::size_t>::max(), 5.0),
            kTimeInfinity);
}

TEST(CombinedRate, SkipsInfiniteDelays) {
  EXPECT_DOUBLE_EQ(combined_rate({10.0, kTimeInfinity, 40.0}), 0.1 + 0.025);
  EXPECT_DOUBLE_EQ(combined_rate({}), 0.0);
  EXPECT_THROW(combined_rate({-1.0}), std::invalid_argument);
}

TEST(CombinedRate, ExpectedDelayInversion) {
  EXPECT_DOUBLE_EQ(expected_delay_from_rate(0.125), 8.0);
  EXPECT_EQ(expected_delay_from_rate(0.0), kTimeInfinity);
}

TEST(DeliveryProbability, MatchesEq7) {
  const double rate = 0.1;
  EXPECT_NEAR(delivery_probability_from_rate(rate, 10.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(delivery_probability_from_rate(rate, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(delivery_probability_from_rate(0.0, 10.0), 0.0);
}

TEST(EstimateDelaySnapshot, UniformExponentialClosedForm) {
  // §4.1.1: with unlimited bandwidth (empty queues ahead) and k replicas
  // under uniform exponential meetings, A(i) = 1 / (k * lambda).
  QueueSnapshot snapshot;
  snapshot.queues = {{7}, {7}, {7}};      // packet 7 replicated at 3 nodes, all heads
  snapshot.meeting_rate = {0.1, 0.1, 0.1};
  const auto delays = estimate_delay_snapshot(snapshot);
  EXPECT_NEAR(delays.at(7), 1.0 / (3 * 0.1), 1e-12);
}

TEST(EstimateDelaySnapshot, QueuePositionIncreasesDelay) {
  // One node, two packets: the head needs 1 meeting, the next needs 2.
  QueueSnapshot snapshot;
  snapshot.queues = {{1, 2}};
  snapshot.meeting_rate = {0.1};
  const auto delays = estimate_delay_snapshot(snapshot);
  EXPECT_NEAR(delays.at(1), 10.0, 1e-12);
  EXPECT_NEAR(delays.at(2), 20.0, 1e-12);
}

TEST(EstimateDelaySnapshot, NonUniformRatesMatchEq9) {
  // Replicas at two nodes with rates 1/10 and 1/40, both heads:
  // A = [1/10 + 1/40]^-1 = 8.
  QueueSnapshot snapshot;
  snapshot.queues = {{5}, {5}};
  snapshot.meeting_rate = {0.1, 0.025};
  const auto delays = estimate_delay_snapshot(snapshot);
  EXPECT_NEAR(delays.at(5), 8.0, 1e-12);
}

TEST(EstimateDelaySnapshot, LargerOpportunitiesFlushFaster) {
  QueueSnapshot one_per_meeting;
  one_per_meeting.queues = {{1, 2, 3, 4}};
  one_per_meeting.meeting_rate = {0.1};
  one_per_meeting.opportunity = 1;

  QueueSnapshot two_per_meeting = one_per_meeting;
  two_per_meeting.opportunity = 2;

  const auto slow = estimate_delay_snapshot(one_per_meeting);
  const auto fast = estimate_delay_snapshot(two_per_meeting);
  EXPECT_LT(fast.at(4), slow.at(4));
  EXPECT_NEAR(slow.at(4), 40.0, 1e-12);  // 4 meetings
  EXPECT_NEAR(fast.at(4), 20.0, 1e-12);  // 2 meetings
}

TEST(EstimateDelaySnapshot, ZeroRateNodeContributesNothing) {
  QueueSnapshot snapshot;
  snapshot.queues = {{1}, {1}};
  snapshot.meeting_rate = {0.0, 0.1};
  const auto delays = estimate_delay_snapshot(snapshot);
  EXPECT_NEAR(delays.at(1), 10.0, 1e-12);

  QueueSnapshot unreachable;
  unreachable.queues = {{2}};
  unreachable.meeting_rate = {0.0};
  EXPECT_EQ(estimate_delay_snapshot(unreachable).at(2), kTimeInfinity);
}

TEST(EstimateDelaySnapshot, MoreReplicasNeverHurt) {
  // Property: adding a replica can only decrease the estimated delay.
  QueueSnapshot base;
  base.queues = {{1, 2}, {3}};
  base.meeting_rate = {0.05, 0.1};
  const auto before = estimate_delay_snapshot(base);

  QueueSnapshot more = base;
  more.queues[1].push_back(1);  // replicate packet 1 onto node 1
  const auto after = estimate_delay_snapshot(more);
  EXPECT_LE(after.at(1), before.at(1));
  // Unaffected packet estimates unchanged (vertical independence).
  EXPECT_DOUBLE_EQ(after.at(2), before.at(2));
}

TEST(EstimateDelaySnapshot, SizeMismatchThrows) {
  QueueSnapshot snapshot;
  snapshot.queues = {{1}};
  snapshot.meeting_rate = {0.1, 0.2};
  EXPECT_THROW(estimate_delay_snapshot(snapshot), std::invalid_argument);
}

}  // namespace
}  // namespace rapid
