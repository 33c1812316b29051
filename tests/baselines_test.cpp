// Behavioural tests for the comparison protocols of §6.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/direct.h"
#include "baselines/epidemic.h"
#include "baselines/maxprop.h"
#include "baselines/prophet.h"
#include "baselines/random_router.h"
#include "baselines/spray_wait.h"
#include "dtn/contact_session.h"
#include "dtn/metrics.h"
#include "sim/protocols.h"
#include "util/binio.h"
#include "util/rng.h"

namespace rapid {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  void init(int nodes, ProtocolKind kind, Bytes capacity = -1,
            ProtocolParams params = {}) {
    ctx_.pool = &pool_;
    ctx_.metrics = &metrics_;
    ctx_.num_nodes = nodes;
    ctx_.oracle = &oracle_;
    oracle_.reset(nodes);
    const RouterFactory factory = make_protocol_factory(kind, params, capacity);
    for (NodeId n = 0; n < nodes; ++n) {
      routers_.push_back(factory(n, ctx_));
      oracle_.set(n, routers_.back().get());
    }
    refresh_metrics();
  }

  void refresh_metrics() {
    metrics_.begin(pool_);
  }

  Router& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  PacketId make_packet(NodeId src, NodeId dst, Time created = 0) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = 1_KB;
    p.created = created;
    const PacketId id = pool_.add(p);
    refresh_metrics();
    return id;
  }

  ContactStats meet(NodeId a, NodeId b, Time t, Bytes capacity) {
    const Meeting m{a, b, t, capacity};
    return run_contact(router(a), router(b), m, meeting_count_++, ContactConfig{}, pool_,
                       metrics_);
  }

  PacketPool pool_;
  MetricsCollector metrics_;
  SimContext ctx_;
  RouterOracle oracle_;
  std::vector<std::unique_ptr<Router>> routers_;
  int meeting_count_ = 0;
};

// --- Spray and Wait -----------------------------------------------------------

TEST_F(BaselinesTest, SprayWaitBinaryTokenSplit) {
  init(4, ProtocolKind::kSprayWait);
  const PacketId id = make_packet(0, 3);
  router(0).on_generate(pool_.get(id));
  auto* src = dynamic_cast<SprayWaitRouter*>(&router(0));
  auto* relay = dynamic_cast<SprayWaitRouter*>(&router(1));
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->copies_of(id), 12);  // L = 12 (§6.1)

  meet(0, 1, 10.0, 100_KB);
  EXPECT_EQ(src->copies_of(id), 6);
  EXPECT_EQ(relay->copies_of(id), 6);
}

TEST_F(BaselinesTest, SprayWaitWaitPhaseOnlyDirectDelivers) {
  ProtocolParams params;
  params.spray_copies = 1;  // start in the wait phase
  init(4, ProtocolKind::kSprayWait, -1, params);
  const PacketId id = make_packet(0, 3);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  EXPECT_FALSE(router(1).buffer().contains(id));  // no spraying with one copy
  const auto stats = meet(0, 3, 20.0, 100_KB);
  EXPECT_EQ(stats.deliveries, 1);  // direct delivery still happens
}

TEST_F(BaselinesTest, SprayWaitTokensHalveDownToWait) {
  init(8, ProtocolKind::kSprayWait);
  const PacketId id = make_packet(0, 7);
  router(0).on_generate(pool_.get(id));
  auto* src = dynamic_cast<SprayWaitRouter*>(&router(0));
  meet(0, 1, 10.0, 100_KB);  // 12 -> 6
  meet(0, 2, 20.0, 100_KB);  // 6 -> 3
  meet(0, 3, 30.0, 100_KB);  // 3 -> 2
  meet(0, 4, 40.0, 100_KB);  // 2 -> 1
  EXPECT_EQ(src->copies_of(id), 1);
  meet(0, 5, 50.0, 100_KB);  // wait phase: no further spray
  EXPECT_FALSE(router(5).buffer().contains(id));
}

TEST_F(BaselinesTest, SprayWaitRechecksCopiesAsTheWalkReachesAPacket) {
  // The plan is built at a contact's first offer. A packet lost and received
  // back later in the same contact returns with the copies its sender handed
  // over; with one copy it must wait, although the plan listed it for
  // spraying. (A crash stands in for the eviction that loses it in a run.)
  init(4, ProtocolKind::kSprayWait);
  const PacketId first = make_packet(0, 3, 0.0);
  const PacketId later = make_packet(0, 3, 1.0);
  router(0).on_generate(pool_.get(first));
  router(0).on_generate(pool_.get(later));
  const PeerView peer(router(1));
  router(0).contact_begin(peer, 10.0, 0);
  const ContactContext contact{10.0, 100_KB, 0};
  EXPECT_EQ(router(0).next_transfer(contact, peer).value_or(kNoPacket), first);
  router(0).on_crash(/*drop_buffers=*/true, 10.0);
  ASSERT_EQ(router(0).receive_copy(pool_.get(later), peer, /*aux=*/1, 10.0),
            ReceiveOutcome::kStored);
  EXPECT_EQ(dynamic_cast<SprayWaitRouter&>(router(0)).copies_of(later), 1);
  EXPECT_FALSE(router(0).next_transfer(contact, peer).has_value());
  router(0).contact_end(peer, 10.0);
}

// --- PRoPHET ------------------------------------------------------------------

TEST_F(BaselinesTest, ProphetDirectEncounterRaisesPredictability) {
  init(3, ProtocolKind::kProphet);
  auto* a = dynamic_cast<ProphetRouter*>(&router(0));
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->predictability(1, 0.0), 0.0);
  meet(0, 1, 10.0, 0);
  EXPECT_NEAR(a->predictability(1, 10.0), 0.75, 1e-9);  // P_init
  meet(0, 1, 10.5, 0);
  EXPECT_NEAR(a->predictability(1, 10.5), 0.75 + 0.25 * 0.75, 1e-2);
}

TEST_F(BaselinesTest, ProphetAgingDecays) {
  ProtocolParams params;
  params.prophet_aging_unit = 10.0;
  init(3, ProtocolKind::kProphet, -1, params);
  auto* a = dynamic_cast<ProphetRouter*>(&router(0));
  meet(0, 1, 0.0, 0);
  const double fresh = a->predictability(1, 0.0);
  const double aged = a->predictability(1, 100.0);  // 10 aging units
  EXPECT_NEAR(aged, fresh * std::pow(0.98, 10.0), 1e-9);
}

TEST_F(BaselinesTest, ProphetTransitivity) {
  init(3, ProtocolKind::kProphet);
  meet(1, 2, 10.0, 0);  // B knows C
  meet(0, 1, 20.0, 0);  // A meets B: learns about C transitively
  auto* a = dynamic_cast<ProphetRouter*>(&router(0));
  const double p_ac = a->predictability(2, 20.0);
  EXPECT_GT(p_ac, 0.0);
  EXPECT_LT(p_ac, a->predictability(1, 20.0));  // weaker than the direct link
}

TEST_F(BaselinesTest, ProphetForwardsOnlyToBetterCarrier) {
  init(3, ProtocolKind::kProphet);
  meet(1, 2, 10.0, 0);  // node 1 is a good carrier towards 2
  const PacketId id = make_packet(0, 2);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 20.0, 100_KB);
  EXPECT_TRUE(router(1).buffer().contains(id));  // P_1(2) > P_0(2)

  // Reverse direction: node 1 must not hand it back to the worse carrier 0.
  const auto stats = meet(0, 1, 30.0, 100_KB);
  EXPECT_EQ(stats.data_bytes, 0);
}

// --- MaxProp ------------------------------------------------------------------

TEST_F(BaselinesTest, MaxPropLikelihoodsNormalized) {
  init(4, ProtocolKind::kMaxProp);
  auto* a = dynamic_cast<MaxPropRouter*>(&router(0));
  ASSERT_NE(a, nullptr);
  // Initially uniform 1/(n-1).
  EXPECT_NEAR(a->meeting_likelihood(1), 1.0 / 3.0, 1e-9);
  meet(0, 1, 10.0, 0);
  // Incremented and renormalized: (1/3 + 1) / 2 = 2/3.
  EXPECT_NEAR(a->meeting_likelihood(1), 2.0 / 3.0, 1e-9);
  double total = 0;
  for (NodeId n = 1; n < 4; ++n) total += a->meeting_likelihood(n);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(BaselinesTest, MaxPropPathCostPrefersFrequentMeetings) {
  // Incremental averaging is recency biased (the latest meeting holds >= 1/2
  // of the mass), so interleave to let frequency dominate: five meetings
  // with 1, one with 2, one more with 1. Node 3 is never met.
  init(4, ProtocolKind::kMaxProp);
  for (int i = 0; i < 5; ++i) meet(0, 1, 10.0 * (i + 1), 0);
  meet(0, 2, 60.0, 0);
  meet(0, 1, 70.0, 0);
  auto* a = dynamic_cast<MaxPropRouter*>(&router(0));
  EXPECT_LT(a->path_cost(1), a->path_cost(2));
  EXPECT_LT(a->path_cost(2), a->path_cost(3));
}

TEST_F(BaselinesTest, MaxPropAcksPurgeDeliveredCopies) {
  init(3, ProtocolKind::kMaxProp);
  const PacketId id = make_packet(0, 2);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);  // replica at 1
  ASSERT_TRUE(router(1).buffer().contains(id));
  meet(0, 2, 20.0, 100_KB);  // delivered; 0 learns ack immediately
  EXPECT_FALSE(router(0).buffer().contains(id));
  meet(1, 0, 30.0, 100_KB);  // ack floods to 1
  EXPECT_FALSE(router(1).buffer().contains(id));
}

TEST_F(BaselinesTest, MaxPropHopCountTracksPath) {
  init(4, ProtocolKind::kMaxProp);
  const PacketId id = make_packet(0, 3);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  meet(1, 2, 20.0, 100_KB);
  auto* c = dynamic_cast<MaxPropRouter*>(&router(2));
  EXPECT_EQ(c->hop_count(id), 2);
}

TEST_F(BaselinesTest, MaxPropDropsHighestCostFirst) {
  init(5, ProtocolKind::kMaxProp, 2_KB);
  // Node 1 frequently meets 2, never 3/4: packets to 2 are cheap for it.
  for (int i = 0; i < 4; ++i) meet(1, 2, 5.0 * (i + 1), 0);
  const PacketId cheap = make_packet(0, 2, 0.0);
  const PacketId costly = make_packet(0, 3, 1.0);
  const PacketId extra = make_packet(0, 2, 2.0);
  // Feed copies straight into node 1's 2 KB buffer; the third arrival forces
  // an eviction, which must hit the highest-path-cost packet (dest 3).
  router(1).receive_copy(pool_.get(cheap), router(0), 1, 30.0);
  router(1).receive_copy(pool_.get(costly), router(0), 1, 31.0);
  const auto outcome = router(1).receive_copy(pool_.get(extra), router(0), 1, 32.0);
  EXPECT_EQ(outcome, ReceiveOutcome::kStored);
  EXPECT_EQ(router(1).buffer().count(), 2u);
  EXPECT_FALSE(router(1).buffer().contains(costly));
}

// --- Random / Epidemic / Direct -------------------------------------------------

TEST_F(BaselinesTest, RandomDeliversDirectFirst) {
  init(3, ProtocolKind::kRandom);
  const PacketId direct = make_packet(0, 1);
  const PacketId relay = make_packet(0, 2);
  router(0).on_generate(pool_.get(direct));
  router(0).on_generate(pool_.get(relay));
  const auto stats = meet(0, 1, 10.0, 1_KB);  // room for exactly one
  EXPECT_EQ(stats.deliveries, 1);
  EXPECT_TRUE(metrics_.is_delivered(direct));
}

TEST_F(BaselinesTest, RandomWithoutAcksKeepsStaleCopies) {
  init(3, ProtocolKind::kRandom);
  const PacketId id = make_packet(0, 2);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  meet(0, 2, 20.0, 100_KB);  // delivered by 0
  ASSERT_TRUE(metrics_.is_delivered(id));
  meet(1, 2, 30.0, 100_KB);
  // Plain Random never purges: node 1 still carries the delivered packet.
  EXPECT_TRUE(router(1).buffer().contains(id));
}

TEST_F(BaselinesTest, RandomWithAcksPurges) {
  init(3, ProtocolKind::kRandomAcks);
  const PacketId id = make_packet(0, 2);
  router(0).on_generate(pool_.get(id));
  meet(0, 1, 10.0, 100_KB);
  meet(0, 2, 20.0, 100_KB);
  ASSERT_TRUE(metrics_.is_delivered(id));
  meet(0, 1, 30.0, 100_KB);  // ack flows 0 -> 1
  EXPECT_FALSE(router(1).buffer().contains(id));
}

TEST_F(BaselinesTest, EpidemicFloodsEverything) {
  init(4, ProtocolKind::kEpidemic);
  std::vector<PacketId> ids;
  for (int i = 0; i < 4; ++i) {
    const PacketId id = make_packet(0, 3, static_cast<Time>(i));
    router(0).on_generate(pool_.get(id));
    ids.push_back(id);
  }
  meet(0, 1, 10.0, 100_KB);
  for (PacketId id : ids) EXPECT_TRUE(router(1).buffer().contains(id));
}

TEST_F(BaselinesTest, EpidemicDropsOldestArrivalWhenFull) {
  init(3, ProtocolKind::kEpidemic, 2_KB);
  const PacketId first = make_packet(0, 2, 0.0);
  const PacketId second = make_packet(0, 2, 1.0);
  const PacketId third = make_packet(0, 2, 2.0);
  Router& r = router(1);
  // Feed copies directly through receive_copy to control arrival order.
  r.receive_copy(pool_.get(first), router(0), 0, 10.0);
  r.receive_copy(pool_.get(second), router(0), 0, 11.0);
  r.receive_copy(pool_.get(third), router(0), 0, 12.0);
  EXPECT_FALSE(r.buffer().contains(first));  // FIFO drop
  EXPECT_TRUE(r.buffer().contains(second));
  EXPECT_TRUE(r.buffer().contains(third));
}

// Checks every FIFO victim against the plain definition: the buffered packet
// stored longest ago, found by a linear scan over arrival numbers the probe
// keeps itself.
class FifoProbeRouter : public EpidemicRouter {
 public:
  using EpidemicRouter::EpidemicRouter;
  using Router::learn_ack;

  bool on_generate(const Packet& p) override {
    if (!EpidemicRouter::on_generate(p)) return false;
    note(p.id);
    return true;
  }

  PacketId choose_drop_victim(const Packet& incoming, Time now) override {
    const PacketId victim = EpidemicRouter::choose_drop_victim(incoming, now);
    PacketId oldest = kNoPacket;
    buffer().for_each([&](PacketId id, Bytes) {
      if (oldest == kNoPacket || arrival[static_cast<std::size_t>(id)] <
                                     arrival[static_cast<std::size_t>(oldest)])
        oldest = id;
    });
    EXPECT_EQ(victim, oldest);
    ++checks;
    return victim;
  }

  std::vector<std::uint64_t> arrival;  // the probe's own arrival numbers
  std::uint64_t next_arrival = 0;
  int checks = 0;

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override {
    EpidemicRouter::on_stored(p, from, aux, now);
    note(p.id);
  }

 private:
  void note(PacketId id) {
    if (arrival.size() <= static_cast<std::size_t>(id)) arrival.resize(id + 1, 0);
    arrival[static_cast<std::size_t>(id)] = next_arrival++;
  }
};

TEST(EpidemicFifo, QueueVictimMatchesTheArrivalScanThroughoutARandomHistory) {
  Rng rng(0xf1f0);
  PacketPool pool;
  for (int i = 0; i < 1500; ++i) {
    Packet p;
    p.src = 0;
    p.dst = 3;
    p.size = rng.uniform_int(1, 3) * 1_KB;
    p.created = static_cast<Time>(i);
    pool.add(p);
  }
  SimContext ctx;
  ctx.pool = &pool;
  ctx.num_nodes = 4;
  const auto make = [&] { return std::make_unique<FifoProbeRouter>(0, 10_KB, &ctx, EpidemicConfig{}); };
  auto router = make();
  FifoProbeRouter peer(1, Bytes{-1}, &ctx, EpidemicConfig{});
  PacketId next_fresh = 0;
  int checks_before_restore = 0;
  for (int step = 0; step < 6000; ++step) {
    const Time now = static_cast<Time>(step);
    const double op = rng.uniform();
    if (op < 0.25 && next_fresh < static_cast<PacketId>(pool.size())) {
      router->on_generate(pool.get(next_fresh++));
    } else if (op < 0.96 && next_fresh > 0) {
      // Mostly a recent packet, so copies lost to an eviction or a crash
      // are often stored again, under a new number.
      const PacketId lo = rng.bernoulli(0.8) ? std::max<PacketId>(0, next_fresh - 12) : 0;
      router->receive_copy(pool.get(rng.uniform_int(lo, next_fresh - 1)), PeerView(peer), 0, now);
    } else if (op < 0.97 && next_fresh > 0) {
      router->learn_ack(rng.uniform_int(0, next_fresh - 1), now);
    } else if (op < 0.98) {
      router->on_crash(true, now);
    }
    if (step == 3000) {
      std::stringstream bytes;
      BinWriter writer(bytes);
      router->save_state(writer);
      auto restored = make();
      BinReader reader(bytes);
      restored->load_state(reader);
      restored->arrival = router->arrival;
      restored->next_arrival = router->next_arrival;
      checks_before_restore = router->checks;
      router = std::move(restored);
    }
  }
  EXPECT_GT(checks_before_restore, 1000);
  EXPECT_GT(router->checks, 1000);  // drops after the restore, on a rebuilt queue
}

TEST_F(BaselinesTest, DirectOnlyDeliversToDestination) {
  init(3, ProtocolKind::kDirect);
  const PacketId id = make_packet(0, 2);
  router(0).on_generate(pool_.get(id));
  const auto via_relay = meet(0, 1, 10.0, 100_KB);
  EXPECT_EQ(via_relay.transfers, 0);
  const auto direct = meet(0, 2, 20.0, 100_KB);
  EXPECT_EQ(direct.deliveries, 1);
}

TEST_F(BaselinesTest, ProtocolNames) {
  EXPECT_EQ(to_string(ProtocolKind::kRapid), "RAPID");
  EXPECT_EQ(to_string(ProtocolKind::kMaxProp), "MaxProp");
  EXPECT_EQ(to_string(ProtocolKind::kSprayWait), "SprayAndWait");
  EXPECT_EQ(to_string(ProtocolKind::kRandomAcks), "Random+acks");
}

}  // namespace
}  // namespace rapid
