// Behavioural tests for Protocol RAPID (§3.4): direct-delivery priority,
// marginal-utility replication order, control-channel exchange, ack purging,
// per-metric drop policy, and the local/global channel variants.
#include <gtest/gtest.h>

#include "core/rapid_router.h"
#include "dtn/contact_session.h"
#include "dtn/metrics.h"

namespace rapid {
namespace {

class RapidRouterTest : public ::testing::Test {
 protected:
  void init(int nodes, const RapidConfig& config, Bytes capacity = -1) {
    init_with_capacities(nodes, config,
                         std::vector<Bytes>(static_cast<std::size_t>(nodes), capacity));
  }

  void init_with_capacities(int nodes, const RapidConfig& config,
                            const std::vector<Bytes>& capacities) {
    config_ = config;
    ctx_.pool = &pool_;
    ctx_.metrics = &metrics_;
    ctx_.num_nodes = nodes;
    ctx_.oracle = &oracle_;
    oracle_.reset(nodes);
    if (config.control == ControlChannelMode::kGlobalOracle)
      channel_ = std::make_shared<GlobalChannel>();
    for (NodeId n = 0; n < nodes; ++n) {
      routers_.push_back(std::make_unique<RapidRouter>(
          n, capacities[static_cast<std::size_t>(n)], &ctx_, config, channel_));
      oracle_.set(n, routers_.back().get());
    }
    metrics_.begin(pool_);
  }

  RapidRouter& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  PacketId make_packet(NodeId src, NodeId dst, Time created, Time deadline = kTimeInfinity,
                       Bytes size = 1_KB) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = size;
    p.created = created;
    p.deadline = deadline;
    const PacketId id = pool_.add(p);
    // metrics vector must grow with the pool
    metrics_.begin(pool_);
    return id;
  }

  ContactStats meet(NodeId a, NodeId b, Time t, Bytes capacity) {
    const Meeting m{a, b, t, capacity};
    return run_contact(router(a), router(b), m, meeting_count_++, contact_config_, pool_,
                       metrics_);
  }

  // Trains the meeting matrices with zero-data contacts.
  void warm_up(NodeId a, NodeId b, std::initializer_list<Time> times) {
    for (Time t : times) meet(a, b, t, 0);
  }

  PacketPool pool_;
  MetricsCollector metrics_;
  SimContext ctx_;
  RapidConfig config_;
  ContactConfig contact_config_;
  std::shared_ptr<GlobalChannel> channel_;
  std::vector<std::unique_ptr<RapidRouter>> routers_;
  RouterOracle oracle_;
  int meeting_count_ = 0;
};

RapidConfig in_band_config() {
  RapidConfig config;
  config.prior_meeting_time = 500.0;
  config.utility.delay_cap = 2000.0;
  return config;
}

TEST_F(RapidRouterTest, DirectDeliveryOldestFirst) {
  init(2, in_band_config());
  const PacketId young = make_packet(0, 1, 50.0);
  const PacketId old = make_packet(0, 1, 10.0);
  router(0).on_generate(pool_.get(young));
  router(0).on_generate(pool_.get(old));
  // Capacity for exactly one packet (plus metadata): the oldest must go.
  const auto stats = meet(0, 1, 100.0, 1_KB + 512);
  EXPECT_EQ(stats.deliveries, 1);
  EXPECT_TRUE(metrics_.is_delivered(old));
  EXPECT_FALSE(metrics_.is_delivered(young));
}

TEST_F(RapidRouterTest, DeliveryPurgesSenderCopyViaAck) {
  init(2, in_band_config());
  const PacketId id = make_packet(0, 1, 0.0);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  EXPECT_TRUE(metrics_.is_delivered(id));
  EXPECT_FALSE(router(0).buffer().contains(id));  // acked away
  EXPECT_TRUE(router(0).knows_ack(id));
}

TEST_F(RapidRouterTest, ReplicationPrefersFewerReplicas) {
  // Node 2 meets the destination (3) as often for both packets; packet B
  // already has a second replica (at node 1), so A has higher marginal
  // utility and must be replicated first.
  init(4, in_band_config());
  warm_up(2, 3, {100, 200, 300});
  warm_up(0, 2, {150, 350});
  warm_up(1, 0, {120, 240});

  const PacketId a = make_packet(0, 3, 400.0);
  const PacketId b = make_packet(0, 3, 401.0);
  router(0).on_generate(pool_.get(a));
  router(0).on_generate(pool_.get(b));
  // Give B a replica at node 1 (so node 0 knows B is better covered).
  meet(0, 1, 402.0, 1_KB + 400);  // room for exactly one replication
  ASSERT_TRUE(router(1).buffer().contains(b) || router(1).buffer().contains(a));

  // Whichever went to 1, node 0's view now has 2 replicas of it; meeting
  // node 2 (who meets the destination), the packet with fewer replicas goes
  // first.
  const PacketId replicated = router(1).buffer().contains(b) ? b : a;
  const PacketId single = replicated == b ? a : b;
  meet(0, 2, 500.0, 1_KB + 400);
  EXPECT_TRUE(router(2).buffer().contains(single));
}

TEST_F(RapidRouterTest, DoesNotReplicateToPeerThatHasCopy) {
  init(3, in_band_config());
  const PacketId id = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  ASSERT_TRUE(router(1).buffer().contains(id));
  const auto stats = meet(0, 1, 20.0, 100_KB);
  EXPECT_EQ(stats.data_bytes, 0);  // nothing left to send either way
}

TEST_F(RapidRouterTest, AckPropagationPurgesThirdPartyBuffers) {
  init(3, in_band_config());
  const PacketId id = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);          // replica at 1
  ASSERT_TRUE(router(1).buffer().contains(id));
  meet(0, 2, 20.0, 100_KB);          // delivered by 0
  ASSERT_TRUE(metrics_.is_delivered(id));
  // 1 still holds a stale copy until it hears the ack.
  ASSERT_TRUE(router(1).buffer().contains(id));
  meet(1, 2, 30.0, 100_KB);          // ack flows 2 -> 1
  EXPECT_FALSE(router(1).buffer().contains(id));
  EXPECT_TRUE(router(1).knows_ack(id));
}

TEST_F(RapidRouterTest, MetadataExchangeCostsBytes) {
  init(3, in_band_config());
  const PacketId id = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(id));
  const auto stats = meet(0, 1, 10.0, 100_KB);
  EXPECT_GT(stats.metadata_bytes, 0);
  // The second meeting exchanges only deltas: less metadata than the first
  // (own-buffer estimates still flow, rows do not).
  const auto stats2 = meet(0, 1, 20.0, 100_KB);
  EXPECT_LE(stats2.metadata_bytes, stats.metadata_bytes);
}

TEST_F(RapidRouterTest, MetadataBudgetZeroSendsNothing) {
  init(3, in_band_config());
  contact_config_.metadata_cap_fraction = 0.0;
  const PacketId id = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(id));
  const auto stats = meet(0, 1, 10.0, 100_KB);
  EXPECT_EQ(stats.metadata_bytes, 0);
  // Replication still possible from purely local knowledge.
  EXPECT_TRUE(router(1).buffer().contains(id));
}

TEST_F(RapidRouterTest, MeetingMatrixLearnsThroughExchange) {
  init(3, in_band_config());
  warm_up(1, 2, {100, 200, 300});
  // Node 0 has never met 2; after meeting 1 it learns 1's row and estimates
  // 0 -> 2 via the two-hop path (300 + 100 < the 500 s prior).
  meet(0, 1, 300.0, 100_KB);
  const double e02 = router(0).effective_meeting_time(2);
  EXPECT_LT(e02, config_.prior_meeting_time);
}

TEST_F(RapidRouterTest, DeadlineMetricSkipsExpiredPackets) {
  RapidConfig config = in_band_config();
  config.metric = RoutingMetric::kMissedDeadlines;
  init(3, config);
  warm_up(1, 2, {10, 20});
  const PacketId expired = make_packet(0, 2, 0.0, 25.0);
  const PacketId viable = make_packet(0, 2, 0.0, 10000.0);
  router(0).on_generate(pool_.get(expired));
  router(0).on_generate(pool_.get(viable));
  meet(0, 1, 30.0, 1_KB + 8_KB);  // after `expired`'s deadline
  EXPECT_TRUE(router(1).buffer().contains(viable));
  EXPECT_FALSE(router(1).buffer().contains(expired));
}

TEST_F(RapidRouterTest, MaxDelayMetricReplicatesHighestExpectedDelayFirst) {
  // Eq. 3 is work conserving: the packet with the largest D(i) = T(i) + A(i)
  // is evaluated first. Two packets to equally-reachable destinations, so
  // the age difference decides.
  RapidConfig config = in_band_config();
  config.metric = RoutingMetric::kMaxDelay;
  init(4, config);
  warm_up(1, 2, {10, 20});
  warm_up(1, 3, {12, 22});
  const PacketId old = make_packet(0, 2, 0.0);
  const PacketId young = make_packet(0, 3, 95.0);
  router(0).on_generate(pool_.get(old));
  router(0).on_generate(pool_.get(young));
  meet(0, 1, 100.0, 1_KB + 400);  // room for one replica
  EXPECT_TRUE(router(1).buffer().contains(old));
  EXPECT_FALSE(router(1).buffer().contains(young));
}

TEST_F(RapidRouterTest, DropPolicyAvgDelayDropsWorstPacket) {
  // Only the relay (node 1) is storage constrained: room for two packets.
  init_with_capacities(4, in_band_config(), {-1, 2_KB, -1, -1});
  warm_up(1, 2, {10, 20, 30});  // 1 meets 2 often
  // Receive (as relay, not source) two packets: one to 2 (short expected
  // delay), one to 3 (never met: capped delay). Then a third arrives.
  const PacketId far = make_packet(0, 3, 0.0);
  const PacketId near = make_packet(0, 2, 1.0);
  const PacketId extra = make_packet(0, 2, 2.0);
  router(0).on_generate(pool_.get(far));
  router(0).on_generate(pool_.get(near));
  router(0).on_generate(pool_.get(extra));
  meet(0, 1, 40.0, 100_KB);
  // Node 1's buffer can hold two of the three; the packet with the largest
  // expected delay (destination 3, never met) must be the one missing.
  EXPECT_EQ(router(1).buffer().count(), 2u);
  EXPECT_FALSE(router(1).buffer().contains(far));
}

TEST_F(RapidRouterTest, SourceNeverDropsOwnPacket) {
  init(3, in_band_config(), 1_KB);  // capacity: a single packet
  const PacketId own = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(own));
  // A relayed packet arrives; the source must reject it rather than drop its
  // own unacknowledged packet.
  const PacketId foreign = make_packet(1, 2, 1.0);
  router(1).on_generate(pool_.get(foreign));
  meet(0, 1, 10.0, 100_KB);
  EXPECT_TRUE(router(0).buffer().contains(own));
  EXPECT_FALSE(router(0).buffer().contains(foreign));
}

TEST_F(RapidRouterTest, GlobalOracleInstantAcks) {
  RapidConfig config = in_band_config();
  config.control = ControlChannelMode::kGlobalOracle;
  init(3, config);
  const PacketId id = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);  // replica at 1
  ASSERT_TRUE(router(1).buffer().contains(id));
  meet(0, 2, 20.0, 100_KB);  // delivered
  ASSERT_TRUE(metrics_.is_delivered(id));
  // Instant global ack: node 1's copy disappears without meeting anyone.
  EXPECT_FALSE(router(1).buffer().contains(id));
}

TEST_F(RapidRouterTest, GlobalOracleCostsNoMetadata) {
  RapidConfig config = in_band_config();
  config.control = ControlChannelMode::kGlobalOracle;
  init(3, config);
  const PacketId id = make_packet(0, 2, 0.0);
  router(0).on_generate(pool_.get(id));
  const auto stats = meet(0, 1, 10.0, 100_KB);
  EXPECT_EQ(stats.metadata_bytes, 0);
}

TEST_F(RapidRouterTest, LocalModeDoesNotRelayThirdPartyReplicaInfo) {
  RapidConfig config = in_band_config();
  config.control = ControlChannelMode::kLocalOnly;
  init(4, config);
  const PacketId id = make_packet(0, 3, 0.0);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);  // 1 gets a copy and knows 0 has one
  // 1 meets 2 with NO data budget beyond metadata: 2 must not learn about
  // 0's replica (local mode only describes 1's own buffer).
  meet(1, 2, 20.0, 2_KB);
  const auto& replicas = router(2).metadata().replicas(id);
  for (const ReplicaEstimate& est : replicas) EXPECT_NE(est.holder, 0);
}

TEST_F(RapidRouterTest, FullModeRelaysThirdPartyReplicaInfo) {
  init(4, in_band_config());
  const PacketId id = make_packet(0, 3, 0.0);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  meet(1, 2, 20.0, 100_KB);
  // Full in-band mode: 2 heard about 0's replica from 1.
  bool knows_zero = false;
  for (const ReplicaEstimate& est : router(2).metadata().replicas(id))
    knows_zero |= est.holder == 0;
  EXPECT_TRUE(knows_zero);
}

TEST_F(RapidRouterTest, EstimatesUseQueuePosition) {
  init(2, in_band_config());
  warm_up(0, 1, {100, 200});
  std::vector<PacketId> ids;
  for (int i = 0; i < 3; ++i) {
    const PacketId id = make_packet(0, 1, 300.0 + i);
    router(0).on_generate(pool_.get(id));
    ids.push_back(id);
  }
  // Later packets sit deeper in the queue; with B = average opportunity of
  // the warm-up (0 bytes -> prior), positions map to meeting counts.
  const double d0 = router(0).self_direct_delay(pool_.get(ids[0]));
  const double d2 = router(0).self_direct_delay(pool_.get(ids[2]));
  EXPECT_LE(d0, d2);
}

TEST_F(RapidRouterTest, WorkConservingUsesWholeOpportunity) {
  init(4, in_band_config());
  std::vector<PacketId> ids;
  for (int i = 0; i < 10; ++i) {
    const PacketId id = make_packet(0, 3, static_cast<Time>(i));
    router(0).on_generate(pool_.get(id));
    ids.push_back(id);
  }
  // Even with no meeting knowledge (prior-driven utilities), RAPID fills the
  // opportunity rather than idling.
  const auto stats = meet(0, 1, 100.0, 100_KB);
  EXPECT_EQ(router(1).buffer().count(), 10u);
  EXPECT_GT(stats.data_bytes, 0);
}

}  // namespace
}  // namespace rapid
