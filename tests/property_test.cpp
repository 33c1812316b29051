// Model-based property tests: random operation sequences checked against
// trivially-correct reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/meeting_matrix.h"
#include "core/metadata.h"
#include "dtn/buffer.h"
#include "util/binio.h"
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
    if (capacity >= 0) {
      ASSERT_LE(buffer.used(), capacity);
    }
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

  // Both sides add a path's legs left to right, so the doubles match exactly.
  for (NodeId to = 1; to < n; ++to)
    EXPECT_EQ(matrix.expected_meeting_time(0, to), brute(0, to)) << "to " << to;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopEstimateFuzz, ::testing::Range(1, 13));

// --- MeetingMatrix at every hop budget, every source, sparse rows -------------

// A 64-node fleet with ~6 finite entries per row (the sparse shape of large
// fleets), queried from every source. The hop budget cycles through 1-4 with
// the parameter, covering the estimate with no relaxation round (h = 1), a
// final round alone (h = 2) and rounds that collect a next frontier
// (h >= 3). Estimates must equal the brute-force Jacobi sweep bit for bit.
class HopDepthFuzz : public ::testing::TestWithParam<int> {};

TEST_P(HopDepthFuzz, MatchesBruteForceAtEveryDepth) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
  const int n = 64;
  const int hops = 1 + GetParam() % 4;
  const double density = 6.0 / (n - 1);
  MeetingMatrix matrix(0, n, hops);

  std::vector<std::vector<Time>> w(static_cast<std::size_t>(n),
                                   std::vector<Time>(static_cast<std::size_t>(n), kTimeInfinity));
  for (NodeId u = 1; u < n; ++u) {
    std::vector<Time>& row = w[static_cast<std::size_t>(u)];
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.bernoulli(density)) row[static_cast<std::size_t>(v)] = rng.uniform(1, 500);
    }
    matrix.merge_row(u, row, 1.0);
  }
  for (NodeId v = 1; v < n; ++v) {
    if (!rng.bernoulli(density)) continue;
    const Time gap = rng.uniform(1, 500);
    matrix.observe_meeting(v, gap);  // single observation: mean == first gap
    w[0][static_cast<std::size_t>(v)] = gap;
  }

  // Brute force: `hops` full Jacobi sweeps over the dense weights. Each
  // sweep keeps the shorter paths, so the result is the min over every path
  // of at most `hops` legs.
  const auto brute = [&](NodeId from) {
    std::vector<Time> dist(static_cast<std::size_t>(n), kTimeInfinity);
    dist[static_cast<std::size_t>(from)] = 0;
    for (int step = 0; step < hops; ++step) {
      std::vector<Time> next = dist;
      for (std::size_t u = 0; u < dist.size(); ++u) {
        if (dist[u] == kTimeInfinity) continue;
        for (std::size_t v = 0; v < dist.size(); ++v) {
          if (w[u][v] != kTimeInfinity) next[v] = std::min(next[v], dist[u] + w[u][v]);
        }
      }
      dist = next;
    }
    return dist;
  };

  int finite = 0;
  for (NodeId from = 0; from < n; ++from) {
    const std::vector<Time> expected = brute(from);
    for (NodeId to = 0; to < n; ++to) {
      const Time want = expected[static_cast<std::size_t>(to)];
      EXPECT_EQ(matrix.expected_meeting_time(from, to), want)
          << "h " << hops << " from " << from << " to " << to;
      finite += want != kTimeInfinity ? 1 : 0;
    }
  }
  EXPECT_GT(finite, 2 * n);  // not a trivially disconnected fleet
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopDepthFuzz, ::testing::Range(0, 16));

// --- Sparse MeetingMatrix rows vs a dense reference ---------------------------

// The dense n x n table the sparse rows replace, with the same update rules:
// running means of inter-meeting gaps for the owner's row, stamp-versioned
// adoption of everyone else's, and h-hop estimates by the classic full
// Jacobi sweep. Answers must match the matrix bit for bit.
struct DenseMatrixModel {
  NodeId owner;
  int n;
  int hops;
  std::vector<std::vector<Time>> rows;
  std::vector<Time> stamps;
  std::vector<int> count;
  std::vector<Time> last_met;

  DenseMatrixModel(NodeId owner_node, int num_nodes, int max_hops)
      : owner(owner_node),
        n(num_nodes),
        hops(max_hops),
        rows(static_cast<std::size_t>(num_nodes),
             std::vector<Time>(static_cast<std::size_t>(num_nodes), kTimeInfinity)),
        stamps(static_cast<std::size_t>(num_nodes), -kTimeInfinity),
        count(static_cast<std::size_t>(num_nodes), 0),
        last_met(static_cast<std::size_t>(num_nodes), 0.0) {}

  void observe(NodeId peer, Time now) {
    const auto p = static_cast<std::size_t>(peer);
    const Time gap = now - last_met[p];
    Time& cell = rows[static_cast<std::size_t>(owner)][p];
    if (count[p] == 0) {
      cell = gap;
    } else {
      cell += (gap - cell) / static_cast<double>(count[p] + 1);
    }
    ++count[p];
    last_met[p] = now;
    stamps[static_cast<std::size_t>(owner)] = now;
  }

  bool merge(NodeId node, const std::vector<Time>& row, Time stamp) {
    const auto u = static_cast<std::size_t>(node);
    if (node == owner || stamp <= stamps[u]) return false;
    rows[u] = row;
    stamps[u] = stamp;
    return true;
  }

  Time direct(NodeId from, NodeId to) const {
    return from == to ? 0 : rows[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  }

  Time expected(NodeId from, NodeId to) const {
    if (from == to) return 0;
    std::vector<Time> dist = rows[static_cast<std::size_t>(from)];
    dist[static_cast<std::size_t>(from)] = 0;
    for (int round = 1; round < hops; ++round) {
      std::vector<Time> next = dist;
      for (std::size_t u = 0; u < dist.size(); ++u) {
        if (dist[u] == kTimeInfinity) continue;
        for (std::size_t v = 0; v < dist.size(); ++v) {
          const Time leg = rows[u][v];
          if (leg == kTimeInfinity) continue;
          if (dist[u] + leg < next[v]) next[v] = dist[u] + leg;
        }
      }
      dist = std::move(next);
    }
    return dist[static_cast<std::size_t>(to)];
  }

  int peers_met() const {
    return static_cast<int>(std::count_if(count.begin(), count.end(), [](int c) { return c > 0; }));
  }
};

std::string matrix_bytes(const MeetingMatrix& m) {
  std::ostringstream os;
  BinWriter writer(os);
  m.save(writer);
  return os.str();
}

void load_matrix(MeetingMatrix& m, const std::string& bytes) {
  std::istringstream is(bytes);
  BinReader reader(is);
  m.load(reader);
}

// Every direct and h-hop answer of `m`, compared bit for bit with `model`.
void expect_matches(const MeetingMatrix& m, const DenseMatrixModel& model, const char* what) {
  EXPECT_EQ(m.peers_met(), model.peers_met()) << what;
  for (NodeId from = 0; from < model.n; ++from) {
    for (NodeId to = 0; to < model.n; ++to) {
      EXPECT_EQ(m.direct_mean(from, to), model.direct(from, to))
          << what << ": direct " << from << "->" << to;
      EXPECT_EQ(m.expected_meeting_time(from, to), model.expected(from, to))
          << what << ": h-hop " << from << "->" << to;
    }
  }
}

class SparseRowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SparseRowFuzz, MatchesDenseReferenceAndRoundTripsSnapshots) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53);
  const int n = 12;
  const int hops = 3;
  MeetingMatrix m(0, n, hops);
  DenseMatrixModel ref(0, n, hops);
  // Gossip sources: nodes 1-3 keep their own matrices, so shared merges
  // adopt versions that their owners go on editing (clone on write).
  std::vector<MeetingMatrix> sources;
  std::vector<DenseMatrixModel> source_refs;
  for (NodeId u = 1; u <= 3; ++u) {
    sources.emplace_back(u, n, hops);
    source_refs.emplace_back(u, n, hops);
  }

  Time now = 0;
  const auto some_peer = [&](NodeId not_this) {
    NodeId peer = not_this;
    while (peer == not_this) peer = static_cast<NodeId>(rng.uniform_int(0, 5));  // repeats
    return peer;
  };
  for (int op = 0; op < 240; ++op) {
    now += rng.uniform(0.5, 30.0);
    const double kind = rng.uniform();
    if (kind < 0.35) {
      const NodeId peer = some_peer(0);
      m.observe_meeting(peer, now);
      ref.observe(peer, now);
    } else if (kind < 0.55) {
      // Dense merge, fresh or stale (equal or older stamp), own row included.
      const auto node = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      std::vector<Time> row(static_cast<std::size_t>(n), kTimeInfinity);
      for (Time& cell : row)
        if (rng.bernoulli(0.3)) cell = rng.uniform(1.0, 100.0);
      const Time known = ref.stamps[static_cast<std::size_t>(node)];
      const double pick = rng.uniform();
      const Time stamp = pick < 0.6 || known == -kTimeInfinity ? now
                         : pick < 0.8                           ? known
                                                                : known - rng.uniform(0.1, 5.0);
      EXPECT_EQ(m.merge_row(node, row, stamp), ref.merge(node, row, stamp)) << "op " << op;
    } else if (kind < 0.75) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const NodeId peer = some_peer(sources[k].owner());
      sources[k].observe_meeting(peer, now);
      source_refs[k].observe(peer, now);
    } else if (kind < 0.95) {
      // Shared merge of a source's own row (rejected while null or stale).
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const NodeId u = sources[k].owner();
      const bool expect = sources[k].share_row(u) != nullptr &&
                          ref.merge(u, source_refs[k].rows[static_cast<std::size_t>(u)],
                                    source_refs[k].stamps[static_cast<std::size_t>(u)]);
      EXPECT_EQ(m.merge_row(u, sources[k].share_row(u)), expect) << "op " << op;
    } else {
      // Hand m's own row to a source; m's next observation must clone it.
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const bool expect = m.share_row(0) != nullptr &&
                          source_refs[k].merge(0, ref.rows[0], ref.stamps[0]);
      EXPECT_EQ(sources[k].merge_row(0, m.share_row(0)), expect) << "op " << op;
    }
    if (op % 8 == 7) {
      expect_matches(m, ref, "live");
      for (std::size_t k = 0; k < sources.size(); ++k)
        expect_matches(sources[k], source_refs[k], "source");
      if (HasFailure()) return;
    }
  }
  expect_matches(m, ref, "live");

  // save -> load into a fresh matrix -> save is byte-identical, and the
  // restored matrix answers like the reference.
  const std::string bytes = matrix_bytes(m);
  MeetingMatrix fresh(0, n, hops);
  load_matrix(fresh, bytes);
  EXPECT_EQ(matrix_bytes(fresh), bytes);
  EXPECT_EQ(fresh.generation(), 0u);  // load restarts the memo key
  expect_matches(fresh, ref, "restored");

  // Restoring over a matrix that already answered queries at generation 0,
  // the value load restores, must not serve its old memoized distances.
  MeetingMatrix queried(0, n, hops);
  for (NodeId from = 0; from < n; ++from)
    for (NodeId to = 0; to < n; ++to) (void)queried.expected_meeting_time(from, to);
  ASSERT_EQ(queried.generation(), 0u);
  load_matrix(queried, bytes);
  expect_matches(queried, ref, "restored over a queried matrix");
  EXPECT_EQ(matrix_bytes(queried), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRowFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace rapid
