#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

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

// --- row-version lifetime ---------------------------------------------------
// A row version is one allocation behind an 8-byte handle with a plain
// (single-threaded) reference count. These tests pin the clone-vs-edit rule
// and reclamation; the sanitizer job runs them under LeakSanitizer.

static_assert(sizeof(MeetingMatrix::RowPtr) == sizeof(void*),
              "a row handle is one pointer, with no control block beside it");

// A version's content, copied out bit for bit.
struct RowImage {
  Time stamp = 0;
  std::vector<NodeId> cols;
  std::vector<std::uint64_t> val_bits;

  explicit RowImage(const MeetingMatrix::RowVersion& v) : stamp(v.stamp) {
    cols.assign(v.cols(), v.cols() + v.count);
    for (std::uint32_t i = 0; i < v.count; ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v.vals()[i], sizeof bits);
      val_bits.push_back(bits);
    }
  }
  bool operator==(const RowImage& o) const {
    return std::memcmp(&stamp, &o.stamp, sizeof stamp) == 0 && cols == o.cols &&
           val_bits == o.val_bits;
  }
};

TEST(RowVersionLifetime, OwnerEditsInPlaceOnlyWhileSoleHolder) {
  MeetingMatrix owner(0, 4);
  MeetingMatrix peer(1, 4);
  owner.observe_meeting(1, 10.0);
  owner.observe_meeting(2, 15.0);
  // Private and with room for both columns: re-meetings edit in place.
  const MeetingMatrix::RowVersion* private_version = owner.share_row(0).get();
  ASSERT_NE(private_version, nullptr);
  for (const Time now : {20.0, 30.0, 45.0}) {
    owner.observe_meeting(1, now);
    owner.observe_meeting(2, now + 1.0);
    EXPECT_EQ(owner.share_row(0).get(), private_version) << "t=" << now;
  }
  EXPECT_EQ(owner.share_row(0)->stamp, 46.0);

  // A peer adopts the version: the next observation clones.
  ASSERT_TRUE(peer.merge_row(0, owner.share_row(0)));
  EXPECT_EQ(peer.share_row(0).get(), private_version);
  owner.observe_meeting(1, 50.0);
  const MeetingMatrix::RowVersion* clone = owner.share_row(0).get();
  EXPECT_NE(clone, private_version);
  EXPECT_EQ(peer.share_row(0).get(), private_version);

  // The clone is private again until gossiped: edited in place.
  owner.observe_meeting(2, 60.0);
  EXPECT_EQ(owner.share_row(0).get(), clone);
  EXPECT_DOUBLE_EQ(owner.direct_mean(0, 2), 12.0);  // gaps 15, 6, 10, 15, 14
  EXPECT_DOUBLE_EQ(peer.direct_mean(0, 2), 11.5);   // the adopted gaps 15, 6, 10, 15
}

TEST(RowVersionLifetime, AdoptedVersionIsBitUnchangedByOwnerEdits) {
  MeetingMatrix owner(0, 6);
  MeetingMatrix a(1, 6);
  MeetingMatrix b(2, 6);
  owner.observe_meeting(3, 7.0);
  owner.observe_meeting(1, 9.5);
  ASSERT_TRUE(a.merge_row(0, owner.share_row(0)));
  const RowImage adopted(*a.share_row(0));
  ASSERT_EQ(adopted.cols, (std::vector<NodeId>{1, 3}));

  // Edits of existing and new columns, before and after a second adoption.
  owner.observe_meeting(3, 20.0);
  owner.observe_meeting(5, 21.0);
  ASSERT_TRUE(b.merge_row(0, owner.share_row(0)));
  const RowImage second(*b.share_row(0));
  owner.observe_meeting(2, 30.0);
  owner.observe_meeting(1, 31.0);
  owner.observe_meeting(4, 32.0);

  EXPECT_TRUE(RowImage(*a.share_row(0)) == adopted);
  EXPECT_TRUE(RowImage(*b.share_row(0)) == second);
  EXPECT_EQ(a.finite_count(0), 2);
  EXPECT_EQ(b.finite_count(0), 3);
  EXPECT_EQ(owner.finite_count(0), 5);
  EXPECT_EQ(a.row_stamp(0), 9.5);
  EXPECT_EQ(b.row_stamp(0), 21.0);
  EXPECT_EQ(owner.row_stamp(0), 32.0);
}

TEST(RowVersionLifetime, MatricesCanBeDestroyedInEveryOrder) {
  // Three matrices hold each other's rows; every destruction order leaves
  // the survivors' views intact, and the last holder frees each version.
  std::array<std::size_t, 3> order{0, 1, 2};
  do {
    std::vector<std::unique_ptr<MeetingMatrix>> m;
    for (NodeId i = 0; i < 3; ++i) {
      m.push_back(std::make_unique<MeetingMatrix>(i, 4));
      m.back()->observe_meeting((i + 1) % 3, 10.0 + i);
      m.back()->observe_meeting(3, 20.0 + i);
    }
    for (NodeId i = 0; i < 3; ++i)
      for (NodeId j = 0; j < 3; ++j)
        if (i != j) m[j]->merge_row(i, m[i]->share_row(i));
    // Node 1 relays node 0's row on to a fourth matrix, which dies first.
    auto relay = std::make_unique<MeetingMatrix>(3, 4);
    relay->merge_row(0, m[1]->share_row(0));
    relay.reset();
    std::vector<Time> expect;
    for (NodeId i = 0; i < 3; ++i) expect.push_back(m[0]->direct_mean(i, 3));

    for (std::size_t step = 0; step < order.size(); ++step) {
      m[order[step]].reset();
      for (const auto& survivor : m) {
        if (survivor == nullptr) continue;
        for (NodeId i = 0; i < 3; ++i)
          EXPECT_EQ(survivor->direct_mean(i, 3), expect[i])
              << "order " << order[0] << order[1] << order[2] << ", step " << step;
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

}  // namespace
}  // namespace rapid
