#include <gtest/gtest.h>

#include "core/meeting_matrix.h"

namespace rapid {
namespace {

TEST(MeetingMatrix, AveragesInterMeetingGaps) {
  MeetingMatrix m(0, 4);
  // Gaps measured from t=0: 10, then 20, then 30 -> mean 20.
  m.observe_meeting(1, 10);
  m.observe_meeting(1, 30);
  m.observe_meeting(1, 60);
  EXPECT_DOUBLE_EQ(m.direct_mean(0, 1), 20.0);
  EXPECT_EQ(m.peers_met(), 1);
}

TEST(MeetingMatrix, UnseenPairsAreInfinite) {
  MeetingMatrix m(0, 4);
  EXPECT_EQ(m.direct_mean(0, 2), kTimeInfinity);
  EXPECT_EQ(m.expected_meeting_time(0, 2), kTimeInfinity);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 0), 0.0);
}

TEST(MeetingMatrix, MergeRowRespectsStamps) {
  MeetingMatrix m(0, 3);
  std::vector<Time> row = {kTimeInfinity, kTimeInfinity, 50.0};
  EXPECT_TRUE(m.merge_row(1, row, 100.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(1, 2), 50.0);
  // Stale update ignored.
  std::vector<Time> stale = {kTimeInfinity, kTimeInfinity, 10.0};
  EXPECT_FALSE(m.merge_row(1, stale, 50.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(1, 2), 50.0);
  // Fresher update applied.
  EXPECT_TRUE(m.merge_row(1, stale, 200.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(1, 2), 10.0);
}

TEST(MeetingMatrix, MergeNeverOverwritesOwnRow) {
  MeetingMatrix m(0, 3);
  m.observe_meeting(1, 10);
  std::vector<Time> forged = {0.0, 1.0, 1.0};
  EXPECT_FALSE(m.merge_row(0, forged, 1e9));
  EXPECT_DOUBLE_EQ(m.direct_mean(0, 1), 10.0);
}

TEST(MeetingMatrix, TwoHopEstimate) {
  // 0 meets 1 (mean 10); 1 meets 2 (mean 25, learnt via metadata);
  // 0 never meets 2: expected time = 10 + 25 ("X meets Y and then Y meets Z").
  MeetingMatrix m(0, 3);
  m.observe_meeting(1, 10);
  std::vector<Time> row1 = {10.0, kTimeInfinity, 25.0};
  m.merge_row(1, row1, 50.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 2), 35.0);
}

TEST(MeetingMatrix, ThreeHopEstimateAndHopBound) {
  // Chain 0-1-2-3 (3 hops, reachable) and 0-1-2-3-4 (4 hops: unreachable
  // under the paper's h = 3 restriction).
  MeetingMatrix m(0, 5, 3);
  m.observe_meeting(1, 10);  // mean 10
  std::vector<Time> row1(5, kTimeInfinity);
  row1[2] = 20.0;
  m.merge_row(1, row1, 100.0);
  std::vector<Time> row2(5, kTimeInfinity);
  row2[3] = 30.0;
  m.merge_row(2, row2, 100.0);
  std::vector<Time> row3(5, kTimeInfinity);
  row3[4] = 40.0;
  m.merge_row(3, row3, 100.0);

  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 3), 60.0);      // 10+20+30
  EXPECT_EQ(m.expected_meeting_time(0, 4), kTimeInfinity);    // needs 4 hops
}

TEST(MeetingMatrix, PrefersCheaperPathOverFewerHops) {
  MeetingMatrix m(0, 4);
  m.observe_meeting(3, 1000);  // direct but slow: mean 1000
  m.observe_meeting(1, 10);    // note: changes gap accounting for node 1 only
  std::vector<Time> row1(4, kTimeInfinity);
  row1[3] = 5.0;
  m.merge_row(1, row1, 2000.0);
  // Direct mean to 3 is 1000; via 1 it is 10 + 5 = 15.
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 3), 15.0);
}

TEST(MeetingMatrix, EstimatesRecomputeAfterUpdates) {
  MeetingMatrix m(0, 3);
  m.observe_meeting(1, 100);
  EXPECT_EQ(m.expected_meeting_time(0, 2), kTimeInfinity);
  std::vector<Time> row1 = {kTimeInfinity, kTimeInfinity, 7.0};
  m.merge_row(1, row1, 500.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 2), 107.0);
  m.observe_meeting(1, 120);  // gaps 100, 20 -> mean 60
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 2), 67.0);
}

TEST(MeetingMatrix, EstimatesForOtherSources) {
  // The matrix answers expected_meeting_time(from, to) for any known row,
  // which RAPID uses to reason about peers.
  MeetingMatrix m(0, 3);
  std::vector<Time> row1 = {3.0, kTimeInfinity, 4.0};
  m.merge_row(1, row1, 10.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(1, 0), 3.0);
}

TEST(MeetingMatrix, GenerationBumpsOnAcceptedMutationsOnly) {
  MeetingMatrix m(0, 3);
  const std::uint64_t g0 = m.generation();
  m.observe_meeting(1, 10);
  EXPECT_GT(m.generation(), g0);
  const std::uint64_t g1 = m.generation();
  std::vector<Time> row = {kTimeInfinity, kTimeInfinity, 50.0};
  EXPECT_TRUE(m.merge_row(1, row, 100.0));
  EXPECT_GT(m.generation(), g1);
  const std::uint64_t g2 = m.generation();
  // Rejected merges (stale stamp, own row) leave the generation unchanged —
  // cached estimates keyed on it stay valid.
  EXPECT_FALSE(m.merge_row(1, row, 100.0));
  EXPECT_FALSE(m.merge_row(0, row, 1e9));
  EXPECT_EQ(m.generation(), g2);
}

TEST(MeetingMatrix, LazyRowsReadAsInfinityUntilLearnt) {
  MeetingMatrix m(0, 4);
  // Nothing learnt about node 2: its row reads as all-infinity.
  EXPECT_EQ(m.share_row(2), nullptr);
  for (NodeId to : {0, 1, 3}) EXPECT_EQ(m.direct_mean(2, to), kTimeInfinity);
  EXPECT_EQ(m.expected_meeting_time(2, 3), kTimeInfinity);
  std::vector<Time> row(4, kTimeInfinity);
  row[3] = 12.0;
  ASSERT_TRUE(m.merge_row(2, row, 5.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(2, 3), 12.0);
  EXPECT_EQ(m.direct_mean(2, 1), kTimeInfinity);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(2, 3), 12.0);
}

TEST(MeetingMatrix, InvalidArgumentsThrow) {
  EXPECT_THROW(MeetingMatrix(5, 3), std::invalid_argument);
  EXPECT_THROW(MeetingMatrix(0, 3, 0), std::invalid_argument);
  MeetingMatrix m(0, 3);
  EXPECT_THROW(m.observe_meeting(0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.observe_meeting(5, 1.0), std::invalid_argument);
  EXPECT_THROW(m.merge_row(1, {1.0}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace rapid
