// Tests for the incremental utility engine (core/utility_cache.h): flat
// destination-queue storage, the direct packet index, the replica-rate memo's
// semantics, and — via a RapidRouter — its invalidation edges: ack arrival,
// replica learned through metadata, meeting-time move, and expiry-driven
// eviction mid-contact. Each edge must dirty exactly the packets whose sums
// read a moved input, asserted with the cache's probe counters. A final test
// locks in the memo's worth on a whole simulation: most rate lookups hit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rapid_router.h"
#include "core/utility_cache.h"
#include "dtn/contact_session.h"
#include "dtn/metrics.h"
#include "obs/obs.h"
#include "runner/scenario_registry.h"
#include "sim/experiment.h"

namespace rapid {
namespace {

// --- flat queue storage -------------------------------------------------------

UtilityCache::QueueEntry entry(Time created, PacketId id, Bytes size = 1_KB) {
  return UtilityCache::QueueEntry{created, id, size};
}

TEST(UtilityCacheQueues, MaintainsAgeOrderAndGenerations) {
  UtilityCache cache(4);
  cache.queue_insert(2, entry(30.0, 3));
  cache.queue_insert(2, entry(10.0, 1));
  cache.queue_insert(2, entry(20.0, 2));
  ASSERT_EQ(cache.queue(2).size(), 3u);
  EXPECT_EQ(cache.queue(2)[0].id, 1);
  EXPECT_EQ(cache.queue(2)[1].id, 2);
  EXPECT_EQ(cache.queue(2)[2].id, 3);
  EXPECT_TRUE(cache.queue(1).empty());  // untouched destination

  cache.queue_erase(2, entry(20.0, 2));
  EXPECT_EQ(cache.queue(2).size(), 2u);
  // Erasing an absent entry is a no-op.
  cache.queue_erase(2, entry(20.0, 2));
  ASSERT_EQ(cache.queue(2).size(), 2u);
  EXPECT_EQ(cache.queue(2)[0].id, 1);
  EXPECT_EQ(cache.queue(2)[1].id, 3);
}

TEST(UtilityCacheQueues, BytesBeforeUniformAndMixed) {
  UtilityCache cache(2);
  for (int i = 0; i < 5; ++i) cache.queue_insert(1, entry(10.0 * i, i, 2_KB));
  // Uniform fast path: position * size.
  EXPECT_EQ(cache.queue_bytes_before(1, entry(25.0, 99, 2_KB)), 3 * 2_KB);
  EXPECT_EQ(cache.queue_bytes_before(1, entry(0.0, -5)), 0);
  EXPECT_EQ(cache.queue_bytes_before(1, entry(1000.0, 99)), 5 * 2_KB);  // whole queue ahead
  // A different size forces the exact prefix scan; results must agree with
  // the sum the eager engine computed.
  cache.queue_insert(1, entry(15.0, 50, 1_KB));
  EXPECT_EQ(cache.queue_bytes_before(1, entry(25.0, 99)), 3 * 2_KB + 1_KB);
  // Removing the odd size restores the uniform fast path.
  cache.queue_erase(1, entry(15.0, 50));
  EXPECT_EQ(cache.queue_bytes_before(1, entry(25.0, 99)), 3 * 2_KB);
}

TEST(UtilityCacheQueues, ForEachQueueVisitsAscendingNonEmpty) {
  UtilityCache cache(5);
  cache.queue_insert(3, entry(1.0, 1));
  cache.queue_insert(0, entry(2.0, 2));
  std::vector<NodeId> visited;
  cache.for_each_queue([&](NodeId dst, const std::vector<UtilityCache::QueueEntry>&) {
    visited.push_back(dst);
    return true;
  });
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 3}));
  // Returning false stops the walk early.
  visited.clear();
  cache.for_each_queue([&](NodeId dst, const std::vector<UtilityCache::QueueEntry>&) {
    visited.push_back(dst);
    return false;
  });
  EXPECT_EQ(visited, (std::vector<NodeId>{0}));
}

// --- memoization and the packet index -----------------------------------------

TEST(UtilityCacheMemo, RecomputesOnlyWhenInputsChange) {
  UtilityCache cache(2);
  int evaluations = 0;
  const auto compute = [&] { return 10.0 * ++evaluations; };
  UtilityCache::RateInputs inputs{300.0, 5, true};
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 10.0);
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 10.0);  // hit
  EXPECT_EQ(evaluations, 1);
  inputs.self_delay = 450.0;  // every key field dirties the entry
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 20.0);
  inputs.metadata_gen = 6;
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 30.0);
  inputs.in_buffer = false;
  inputs.self_delay = 0;
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 40.0);
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 40.0);  // hit
  EXPECT_EQ(cache.stats().rate_hits, 2u);
  EXPECT_EQ(cache.stats().rate_recomputes, 4u);
  // An infinite self delay (unreachable destination) is a key like any other.
  inputs = UtilityCache::RateInputs{kTimeInfinity, 6, true};
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 50.0);
  EXPECT_DOUBLE_EQ(cache.rate(7, inputs, compute), 50.0);
  EXPECT_EQ(evaluations, 5);
}

TEST(UtilityCacheMemo, SurvivesGrowthAndForget) {
  UtilityCache cache(2);
  const UtilityCache::RateInputs inputs{300.0, 1, true};
  // Enough distinct packets to grow the index and the packed entries often.
  for (PacketId id = 0; id < 10000; ++id)
    cache.rate(id, inputs, [&] { return static_cast<double>(id); });
  EXPECT_EQ(cache.tracked_packets(), 10000u);
  for (PacketId id = 0; id < 10000; ++id) {
    int evaluated = 0;
    EXPECT_DOUBLE_EQ(cache.rate(id, inputs,
                                [&] {
                                  ++evaluated;
                                  return -1.0;
                                }),
                     static_cast<double>(id));
    EXPECT_EQ(evaluated, 0) << id;
  }
  // Forget every third packet (ack purges); the survivors keep their values.
  for (PacketId id = 0; id < 10000; id += 3) cache.forget(id);
  EXPECT_EQ(cache.stats().forgets, 3334u);
  for (PacketId id = 0; id < 10000; ++id) {
    int evaluated = 0;
    const double value = cache.rate(id, inputs, [&] {
      ++evaluated;
      return -2.0;
    });
    if (id % 3 == 0) {
      EXPECT_EQ(evaluated, 1) << id;  // forgotten: recomputed
      EXPECT_DOUBLE_EQ(value, -2.0);
    } else {
      EXPECT_EQ(evaluated, 0) << id;
      EXPECT_DOUBLE_EQ(value, static_cast<double>(id));
    }
  }
}

TEST(UtilityCacheMemo, NestedComputeMayGrowTheIndex) {
  // compute() may use the cache itself: the inner call inserts an entry and
  // may reallocate the packed vector before the outer entry is stored.
  UtilityCache cache(2);
  const UtilityCache::RateInputs inputs{300.0, 1, true};
  for (PacketId id = 0; id < 200; ++id) {
    const double value = cache.rate(id, inputs, [&] {
      return cache.rate(id + 100000, inputs, [] { return 2.0; }) + 1.0;
    });
    EXPECT_DOUBLE_EQ(value, 3.0);
  }
  for (PacketId id = 0; id < 200; ++id) {
    EXPECT_DOUBLE_EQ(cache.rate(id, inputs, [] { return -1.0; }), 3.0);
    EXPECT_DOUBLE_EQ(cache.rate(id + 100000, inputs, [] { return -1.0; }), 2.0);
  }
}

// --- invalidation edges through a RapidRouter ---------------------------------

class InvalidationEdgeTest : public ::testing::Test {
 protected:
  // Nodes: 0 = router under test, 1 = peer/relay, 2 and 3 = destinations.
  void init(const RapidConfig& config, Bytes capacity = -1) {
    ctx_.pool = &pool_;
    ctx_.metrics = &metrics_;
    ctx_.num_nodes = 4;
    ctx_.oracle = &oracle_;
    oracle_.reset(4);
    for (NodeId n = 0; n < 4; ++n) {
      routers_.push_back(std::make_unique<RapidRouter>(
          n, n == 0 ? capacity : Bytes{-1}, &ctx_, config, nullptr));
      oracle_.set(n, routers_.back().get());
    }
  }

  RapidRouter& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  // Two meetings with `dst` make E[M](0, dst) finite. Under a 1 KB expected
  // opportunity each 1 KB packet queued ahead then adds one meeting, so a
  // queue edit moves the self delay of every packet behind it.
  void reach(NodeId dst) {
    router(0).contact_begin(PeerView(router(dst)), 10.0, 0);
    router(0).contact_begin(PeerView(router(dst)), 30.0, 0);
  }
  static RapidConfig one_kb_opportunities() {
    RapidConfig config;
    config.prior_opportunity_bytes = 1_KB;
    return config;
  }

  PacketId make_packet(NodeId src, NodeId dst, Time created,
                       Time deadline = kTimeInfinity) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = 1_KB;
    p.created = created;
    p.deadline = deadline;
    const PacketId id = pool_.add(p);
    metrics_.begin(pool_);
    return id;
  }

  // Three packets each to destinations 2 and 3, received as a relay (src 1)
  // so eviction tests are not blocked by source protection.
  void seed_and_warm() {
    for (int i = 0; i < 3; ++i) group_a_.push_back(receive(2, static_cast<Time>(i)));
    for (int i = 0; i < 3; ++i) group_b_.push_back(receive(3, 3.0 + static_cast<Time>(i)));
    probe();  // fill the cache
  }

  PacketId receive(NodeId dst, Time created, Time deadline = kTimeInfinity) {
    const PacketId id = make_packet(1, dst, created, deadline);
    EXPECT_EQ(router(0).receive_copy(pool_.get(id), PeerView(router(1)), 0, created),
              ReceiveOutcome::kStored);
    return id;
  }

  // Evaluates the rate of every still-buffered seeded packet and returns the
  // probe-counter deltas of the evaluation.
  UtilityCacheStats probe() {
    const UtilityCacheStats before = router(0).utility_cache().stats();
    for (const PacketId id : group_a_)
      if (router(0).buffer().contains(id)) router(0).replica_rate(pool_.get(id));
    for (const PacketId id : group_b_)
      if (router(0).buffer().contains(id)) router(0).replica_rate(pool_.get(id));
    const UtilityCacheStats& after = router(0).utility_cache().stats();
    return UtilityCacheStats{after.rate_hits - before.rate_hits,
                             after.rate_recomputes - before.rate_recomputes,
                             after.forgets - before.forgets};
  }

  PacketPool pool_;
  MetricsCollector metrics_;
  SimContext ctx_;
  RouterOracle oracle_;
  std::vector<std::unique_ptr<RapidRouter>> routers_;
  std::vector<PacketId> group_a_;  // destination 2
  std::vector<PacketId> group_b_;  // destination 3
};

TEST_F(InvalidationEdgeTest, SteadyStateProbesAllHit) {
  init(RapidConfig{});
  seed_and_warm();
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 0u);
  EXPECT_EQ(delta.rate_hits, 6u);
}

TEST_F(InvalidationEdgeTest, AckArrivalDirtiesOnlyTheAckedDestination) {
  init(one_kb_opportunities());
  reach(2);
  seed_and_warm();
  // Delivery ack for one destination-2 packet: purges it, moves the two
  // survivors one meeting closer, and must leave destination 3's sums
  // untouched.
  PeerView(router(0)).learn_ack(group_a_[0], 50.0);
  EXPECT_FALSE(router(0).buffer().contains(group_a_[0]));
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 2u);  // the two surviving dst-2 packets
  EXPECT_EQ(delta.rate_hits, 3u);        // all of destination 3 still hits
}

TEST_F(InvalidationEdgeTest, QueueMoveThatKeepsTheSelfDelayStillHits) {
  init(RapidConfig{});
  seed_and_warm();
  // Destination 2 is unreachable, so every dst-2 self delay is infinite
  // before and after the ack: the survivors' queue positions move, their
  // sums cannot, and all five lookups hit.
  PeerView(router(0)).learn_ack(group_a_[0], 50.0);
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 0u);
  EXPECT_EQ(delta.rate_hits, 5u);
}

TEST_F(InvalidationEdgeTest, MetadataReplicaDirtiesExactlyThatPacket) {
  init(RapidConfig{});
  seed_and_warm();
  // A replica of one packet materializes at node 2's router (learned through
  // the post-transfer metadata hand-off): only that packet's rate sum is
  // stale; queue positions and every other packet are untouched.
  router(0).on_transfer_success(pool_.get(group_a_[0]), PeerView(router(3)),
                                ReceiveOutcome::kStored, 60.0);
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 1u);  // its metadata generation moved
  EXPECT_EQ(delta.rate_hits, 5u);
}

TEST_F(InvalidationEdgeTest, MeetingTimeMoveDirtiesOnlyAffectedDestinations) {
  init(RapidConfig{});
  reach(2);  // E[M](0,2) is finite before warming the cache
  seed_and_warm();
  // A third meeting moves the running inter-meeting mean for destination 2
  // (matrix generation bump): its packets recompute. Destination 3 remains
  // unreachable — its meeting-time estimate did not move, so a contact that
  // merely perturbed the matrix costs it nothing.
  router(0).contact_begin(PeerView(router(2)), 60.0, 0);
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 3u);
  EXPECT_EQ(delta.rate_hits, 3u);
}

TEST_F(InvalidationEdgeTest, ExpiryEvictionMidContactDirtiesAffectedQueuesOnly) {
  RapidConfig config = one_kb_opportunities();
  config.metric = RoutingMetric::kMissedDeadlines;
  init(config, 6_KB);  // room for exactly the six seeded packets
  reach(2);
  // First destination-2 packet expires at t=10; everything else is viable.
  group_a_.push_back(receive(2, 0.0, 10.0));
  group_a_.push_back(receive(2, 1.0, 10000.0));
  group_a_.push_back(receive(2, 2.0, 10000.0));
  group_b_.push_back(receive(3, 3.0, 10000.0));
  group_b_.push_back(receive(3, 4.0, 10000.0));
  group_b_.push_back(receive(3, 5.0, 10000.0));
  probe();

  // A seventh packet arrives mid-contact after the deadline passed: the
  // expired packet is the designated drop victim (§3.4 lowest utility
  // first). Its eviction moves the dst-2 survivors one meeting closer and
  // the arrival is newly buffered; destination 3 must keep hitting.
  const PacketId incoming = receive(2, 100.0, 10000.0);
  EXPECT_FALSE(router(0).buffer().contains(group_a_[0]));  // expired copy gone
  group_a_[0] = incoming;
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 3u);  // dst-2 survivors + the new arrival
  EXPECT_EQ(delta.rate_hits, 3u);        // dst 3 untouched
}

// --- whole-simulation recomputation savings -----------------------------------

TEST(UtilityCacheSavings, PowerlawLargeRecomputesAtLeastThreeTimesLess) {
  // One run of the registered powerlaw-large scenario (500 nodes, >= 10k
  // packets): the replica-rate memo must serve at least two of every three
  // lookups, i.e. lookups >= 3x recomputes. runner_test.cpp's
  // UtilityCachePath tests check the served sums against a reference.
  ScenarioConfig config = runner::ScenarioRegistry::global().make("powerlaw-large");
  const Scenario scenario(config);
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const SimResult result = run_instance(scenario, scenario.instance(0, 3.0), spec);
  ASSERT_NE(result.obs, nullptr);
  // Every router's cache counters, summed into the run's registry at finish().
  const std::uint64_t hits = result.obs->metrics.value("utility.rate_hits");
  const std::uint64_t recomputes = result.obs->metrics.value("utility.rate_recomputes");
  ASSERT_GT(recomputes, 0u);
  EXPECT_GE(hits + recomputes, 3 * recomputes) << "hits=" << hits << " recomputes=" << recomputes;
}

}  // namespace
}  // namespace rapid
