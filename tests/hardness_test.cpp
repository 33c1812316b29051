// Constructions from the paper's hardness results.
//
// Theorem 1a (Appendix A): an offline adversary that observes an online
// algorithm's stage-1 replication choices can always wire intermediates to
// destinations so that at most one packet is delivered, while the adversary
// itself (with knowledge of the wiring) delivers all of them. We run the
// construction against our real routers.
//
// Theorem 2 (Appendix B): the optimal-routing ILP on the DTN instance
// produced by the edge-disjoint-paths reduction finds exactly the maximum
// set of edge-disjoint paths.
#include <gtest/gtest.h>

#include <set>

#include "dtn/contact_session.h"
#include "dtn/metrics.h"
#include "opt/time_expanded.h"
#include "sim/engine.h"
#include "sim/protocols.h"

namespace rapid {
namespace {

// Runs the Theorem 1a game against the given protocol with n packets.
// Node layout: 0 = source A; 1..n = intermediates u_i; n+1..2n = dests v_i.
struct AdversaryOutcome {
  std::size_t algorithm_delivered = 0;
  std::size_t adversary_delivered = 0;
};

AdversaryOutcome play_theorem_1a(ProtocolKind kind, int n) {
  const int num_nodes = 1 + 2 * n;
  PacketPool pool;
  for (int i = 0; i < n; ++i) {
    Packet p;
    p.src = 0;
    p.dst = static_cast<NodeId>(n + 1 + i);
    p.size = 1_KB;
    p.created = 0;
    pool.add(p);
  }

  MetricsCollector metrics;
  SimContext ctx;
  ctx.pool = &pool;
  ctx.metrics = &metrics;
  ctx.num_nodes = num_nodes;
  RouterOracle oracle;
  oracle.reset(num_nodes);
  ctx.oracle = &oracle;

  ProtocolParams params;
  params.rapid_prior_meeting_time = 1000;
  params.rapid_prior_opportunity = 1_KB;
  const RouterFactory factory = make_protocol_factory(kind, params, -1);
  std::vector<std::unique_ptr<Router>> routers;
  for (NodeId node = 0; node < num_nodes; ++node) {
    routers.push_back(factory(node, ctx));
    oracle.set(node, routers.back().get());
  }
  metrics.begin(pool);

  for (const Packet& p : pool.all()) routers[0]->on_generate(p);

  // Stage 1: A meets each intermediate with a unit-sized opportunity.
  int meeting_index = 0;
  for (int i = 0; i < n; ++i) {
    const Meeting m{0, static_cast<NodeId>(1 + i), 10.0 + i, 1_KB + 300};
    run_contact(*routers[0], *routers[static_cast<std::size_t>(1 + i)], m, meeting_index++,
                ContactConfig{}, pool, metrics);
  }

  // ADV observes X: which intermediates hold which packet.
  // X[p] = set of intermediates (1-based index i) holding packet p.
  std::vector<std::set<int>> holds(pool.size());
  for (int i = 0; i < n; ++i) {
    for (PacketId id = 0; id < static_cast<PacketId>(pool.size()); ++id) {
      if (routers[static_cast<std::size_t>(1 + i)]->buffer().contains(id))
        holds[static_cast<std::size_t>(id)].insert(i);
    }
  }

  // Procedure Generate_Y(X): map intermediates to destinations so that ALG
  // delivers at most one packet (Lemma 1/2).
  std::vector<int> y(static_cast<std::size_t>(n), -1);  // y[u] = packet index whose dest u meets
  std::vector<bool> mapped(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    int chosen = -1;
    for (int u = 0; u < n; ++u) {
      if (!mapped[static_cast<std::size_t>(u)] &&
          holds[static_cast<std::size_t>(i)].count(u) == 0) {
        chosen = u;  // line 3-4: an unmapped intermediate NOT holding p_i
        break;
      }
    }
    if (chosen < 0) {
      for (int u = 0; u < n; ++u) {
        if (!mapped[static_cast<std::size_t>(u)]) {
          chosen = u;  // line 6
          break;
        }
      }
    }
    if (chosen >= 0) {
      mapped[static_cast<std::size_t>(chosen)] = true;
      y[static_cast<std::size_t>(chosen)] = i;
    }
  }

  // Stage 2: each intermediate meets its assigned destination once.
  for (int u = 0; u < n; ++u) {
    const int packet_index = y[static_cast<std::size_t>(u)];
    if (packet_index < 0) continue;
    const Meeting m{static_cast<NodeId>(1 + u), static_cast<NodeId>(n + 1 + packet_index),
                    100.0 + u, 1_KB + 300};
    run_contact(*routers[static_cast<std::size_t>(1 + u)],
                *routers[static_cast<std::size_t>(n + 1 + packet_index)], m,
                meeting_index++, ContactConfig{}, pool, metrics);
  }

  AdversaryOutcome outcome;
  const SimResult result = metrics.finalize(pool, 1000);
  outcome.algorithm_delivered = result.delivered;
  // The adversary, knowing Y in advance, routes p_{y[u]} through u: it can
  // always deliver every packet (Lemma 3) because Y is a bijection.
  std::size_t adversary = 0;
  for (int u = 0; u < n; ++u)
    if (y[static_cast<std::size_t>(u)] >= 0) ++adversary;
  outcome.adversary_delivered = adversary;
  return outcome;
}

class Theorem1a : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(Theorem1a, OnlineAlgorithmDeliversAtMostOne) {
  const int n = 6;
  const AdversaryOutcome outcome = play_theorem_1a(GetParam(), n);
  // Lemma 2: at most one delivery for the online algorithm...
  EXPECT_LE(outcome.algorithm_delivered, 1u);
  // ...while the adversary's wiring admits delivery of all n (Lemma 3).
  EXPECT_EQ(outcome.adversary_delivered, static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Protocols, Theorem1a,
                         ::testing::Values(ProtocolKind::kRapid, ProtocolKind::kMaxProp,
                                           ProtocolKind::kProphet, ProtocolKind::kEpidemic,
                                           ProtocolKind::kSprayWait));

TEST(Theorem2, EdpReductionMatchesOptimal) {
  // A DAG with 4 vertices and unit-capacity edges labeled in topological
  // order (= meeting times). Two source-dest pairs; only one pair of
  // edge-disjoint paths exists for both, the other shares an edge.
  //
  // Graph: 0->1 (t=1), 0->2 (t=2), 1->3 (t=3), 2->3 (t=4), 1->2 (t=2.5).
  // Pairs: (0,3) and (1,3): EDP admits both: 0->2->3 and 1->3.
  MeetingSchedule s;
  s.num_nodes = 4;
  s.duration = 10;
  s.add(0, 1, 1, 1_KB);
  s.add(0, 2, 2, 1_KB);
  s.add(1, 2, 2.5, 1_KB);
  s.add(1, 3, 3, 1_KB);
  s.add(2, 3, 4, 1_KB);
  s.sort();
  PacketPool pool;
  Packet p1;
  p1.src = 0;
  p1.dst = 3;
  p1.size = 1_KB;
  p1.created = 0;
  pool.add(p1);
  Packet p2;
  p2.src = 1;
  p2.dst = 3;
  p2.size = 1_KB;
  p2.created = 0;
  pool.add(p2);

  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 2);  // both edge-disjoint paths found
}

TEST(Theorem2, SharedEdgeLimitsDeliveries) {
  // Both pairs must traverse the single 2->3 edge: only one delivery.
  MeetingSchedule s;
  s.num_nodes = 4;
  s.duration = 10;
  s.add(0, 2, 1, 1_KB);
  s.add(1, 2, 2, 1_KB);
  s.add(2, 3, 3, 1_KB);
  s.sort();
  PacketPool pool;
  Packet p1;
  p1.src = 0;
  p1.dst = 3;
  p1.size = 1_KB;
  p1.created = 0;
  pool.add(p1);
  Packet p2;
  p2.src = 1;
  p2.dst = 3;
  p2.size = 1_KB;
  p2.created = 0;
  pool.add(p2);

  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 1);
}

}  // namespace
}  // namespace rapid
