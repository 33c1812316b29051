// Model-based property tests: random operation sequences checked against
// trivially-correct reference implementations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/meeting_matrix.h"
#include "core/metadata.h"
#include "dtn/buffer.h"
#include "util/rng.h"

namespace rapid {
namespace {

// --- Buffer vs a map + counter model -----------------------------------------

class BufferFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BufferFuzz, MatchesReferenceModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101);
  const Bytes capacity = rng.bernoulli(0.3) ? -1 : rng.uniform_int(1, 20) * 1_KB;
  Buffer buffer(capacity);
  std::map<PacketId, Bytes> model;
  Bytes model_used = 0;

  for (int op = 0; op < 500; ++op) {
    const PacketId id = rng.uniform_int(0, 30);
    if (rng.bernoulli(0.6)) {
      const Bytes size = rng.uniform_int(1, 4) * 512;
      const bool fits = capacity < 0 || model_used + size <= capacity;
      const bool expect_ok = fits && model.count(id) == 0;
      EXPECT_EQ(buffer.insert(id, size), expect_ok);
      if (expect_ok) {
        model[id] = size;
        model_used += size;
      }
    } else {
      const bool expect_ok = model.count(id) > 0;
      EXPECT_EQ(buffer.erase(id), expect_ok);
      if (expect_ok) {
        model_used -= model[id];
        model.erase(id);
      }
    }
    ASSERT_EQ(buffer.used(), model_used);
    ASSERT_EQ(buffer.count(), model.size());
    if (capacity >= 0) ASSERT_LE(buffer.used(), capacity);
  }
  // Final content comparison.
  std::set<PacketId> in_buffer;
  for (PacketId id : buffer.packet_ids()) in_buffer.insert(id);
  std::set<PacketId> in_model;
  for (const auto& [id, size] : model) in_model.insert(id);
  EXPECT_EQ(in_buffer, in_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFuzz, ::testing::Range(1, 9));

// --- MetadataStore vs a freshest-stamp-wins model -----------------------------

class MetadataFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MetadataFuzz, FreshestStampAlwaysWins) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717);
  MetadataStore store;
  // model[packet][holder] = (stamp, delay); absent = removed/never seen.
  std::map<PacketId, std::map<NodeId, std::pair<Time, double>>> model;

  for (int op = 0; op < 800; ++op) {
    const PacketId id = rng.uniform_int(0, 12);
    const NodeId holder = static_cast<NodeId>(rng.uniform_int(0, 5));
    const Time stamp = rng.uniform(0, 100);
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 6) {
      const double delay = rng.uniform(1, 1000);
      store.update_replica(id, ReplicaEstimate{holder, delay, stamp});
      auto& holders = model[id];
      auto hit = holders.find(holder);
      if (hit == holders.end()) {
        holders[holder] = {stamp, delay};  // first sighting always accepted
      } else if (stamp > hit->second.first) {
        hit->second = {stamp, delay};  // freshest stamp wins
      }
    } else if (kind < 8) {
      store.remove_replica(id, holder, stamp);
      auto pit = model.find(id);
      if (pit != model.end()) {
        auto hit = pit->second.find(holder);
        if (hit != pit->second.end() && stamp > hit->second.first) pit->second.erase(hit);
      }
    } else {
      store.forget_packet(id);
      model.erase(id);
    }
  }

  for (const auto& [id, holders] : model) {
    const auto& replicas = store.replicas(id);
    std::map<NodeId, double> got;
    for (const ReplicaEstimate& est : replicas) got[est.holder] = est.direct_delay;
    std::map<NodeId, double> want;
    for (const auto& [holder, entry] : holders) want[holder] = entry.second;
    EXPECT_EQ(got, want) << "packet " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetadataFuzz, ::testing::Range(1, 9));

// --- MeetingMatrix vs brute-force path enumeration ----------------------------

class HopEstimateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(HopEstimateFuzz, MatchesBruteForceWithinHopBudget) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37);
  const int n = 6;
  const int hops = 3;
  MeetingMatrix matrix(0, n, hops);

  // Random directed weight matrix, merged as rows (owner row via merge is
  // disallowed, so owner weights come from observations).
  std::vector<std::vector<Time>> w(static_cast<std::size_t>(n),
                                   std::vector<Time>(static_cast<std::size_t>(n), kTimeInfinity));
  for (NodeId u = 1; u < n; ++u) {
    std::vector<Time> row(static_cast<std::size_t>(n), kTimeInfinity);
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.bernoulli(0.45)) row[static_cast<std::size_t>(v)] = rng.uniform(1, 50);
    }
    w[static_cast<std::size_t>(u)] = row;
    matrix.merge_row(u, row, 1.0);
  }
  // Owner's outgoing weights: single observations pin the means exactly.
  for (NodeId v = 1; v < n; ++v) {
    if (rng.bernoulli(0.6)) continue;
    const Time gap = rng.uniform(1, 50);
    matrix.observe_meeting(v, gap);  // single observation: mean == first gap
    w[0][static_cast<std::size_t>(v)] = gap;
  }

  // Brute force: min over all paths with <= `hops` edges.
  const auto brute = [&](NodeId from, NodeId to) {
    std::vector<Time> dist(static_cast<std::size_t>(n), kTimeInfinity);
    dist[static_cast<std::size_t>(from)] = 0;
    Time best = from == to ? 0 : kTimeInfinity;
    for (int step = 0; step < hops; ++step) {
      std::vector<Time> next = dist;
      for (int u = 0; u < n; ++u) {
        if (dist[static_cast<std::size_t>(u)] == kTimeInfinity) continue;
        for (int v = 0; v < n; ++v) {
          const Time leg = w[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
          if (leg == kTimeInfinity) continue;
          next[static_cast<std::size_t>(v)] = std::min(
              next[static_cast<std::size_t>(v)], dist[static_cast<std::size_t>(u)] + leg);
        }
      }
      dist = next;
      best = std::min(best, dist[static_cast<std::size_t>(to)]);
    }
    return best;
  };

  for (NodeId to = 1; to < n; ++to) {
    const Time expected = brute(0, to);
    const Time got = matrix.expected_meeting_time(0, to);
    if (expected == kTimeInfinity) {
      EXPECT_EQ(got, kTimeInfinity) << "to " << to;
    } else {
      EXPECT_NEAR(got, expected, 1e-9) << "to " << to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopEstimateFuzz, ::testing::Range(1, 13));

}  // namespace
}  // namespace rapid
