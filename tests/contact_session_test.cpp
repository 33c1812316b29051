// run_contact link-policy tests: the full drain, mid-transfer interruption
// (partial-transfer accounting), asymmetric directional budgets, and the
// eviction-refusal (kRejected) path.
#include <gtest/gtest.h>

#include <deque>

#include "core/rapid_router.h"
#include "dtn/contact_session.h"
#include "dtn/metrics.h"
#include "dtn/router.h"

namespace rapid {
namespace {

class ScriptedRouter : public Router {
 public:
  ScriptedRouter(NodeId self, Bytes capacity, const SimContext* ctx)
      : Router(self, capacity, ctx) {}

  Bytes metadata_to_send = 0;
  std::deque<PacketId> script;
  std::vector<PacketId> sent_fail;
  int end_calls = 0;

  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override {
    Router::contact_begin(peer, now, meta_budget);
    return std::min(metadata_to_send, meta_budget);
  }

  std::optional<PacketId> next_transfer(const ContactContext& contact,
                                        const PeerView& peer) override {
    while (!script.empty()) {
      const PacketId id = script.front();
      if (!buffer().contains(id) || contact_skipped(id) ||
          !peer_wants(peer, ctx().packet(id))) {
        script.pop_front();
        continue;
      }
      if (ctx().packet(id).size > contact.remaining) return std::nullopt;
      script.pop_front();
      return id;
    }
    return std::nullopt;
  }

  void on_transfer_failed(const Packet& p, const PeerView& peer, Time now) override {
    Router::on_transfer_failed(p, peer, now);
    sent_fail.push_back(p.id);
  }

  void contact_end(const PeerView& peer, Time now) override {
    Router::contact_end(peer, now);
    ++end_calls;
  }

  PacketId choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) override {
    return kNoPacket;  // never evict
  }
};

class ContactSessionTest : public ::testing::Test {
 protected:
  void init(int nodes) {
    ctx_.pool = &pool_;
    ctx_.metrics = &metrics_;
    ctx_.num_nodes = nodes;
    for (NodeId n = 0; n < nodes; ++n)
      routers_.push_back(std::make_unique<ScriptedRouter>(n, -1, &ctx_));
  }

  ScriptedRouter& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  PacketId make_packet(NodeId src, NodeId dst, Bytes size, Time created = 0) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = size;
    p.created = created;
    return pool_.add(p);
  }

  // Loads `count` packets into `src`'s buffer and script, destined for `dst`.
  std::vector<PacketId> load(NodeId src, NodeId dst, int count, Bytes size) {
    std::vector<PacketId> ids;
    for (int i = 0; i < count; ++i) {
      const PacketId id = make_packet(src, dst, size, static_cast<Time>(i));
      router(src).buffer().insert(id, size);
      router(src).script.push_back(id);
      ids.push_back(id);
    }
    return ids;
  }

  void begin_metrics() {
    metrics_.begin(pool_);
  }

  PacketPool pool_;
  MetricsCollector metrics_;
  SimContext ctx_;
  std::vector<std::unique_ptr<ScriptedRouter>> routers_;
};

TEST_F(ContactSessionTest, FullDrainReproducesLegacyStats) {
  init(3);
  load(0, 2, 5, 1_KB);
  begin_metrics();
  const Meeting m{0, 1, 10.0, 3_KB};
  const ContactStats stats =
      run_contact(router(0), router(1), m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.transfers, 3);
  EXPECT_EQ(stats.data_bytes, 3_KB);
  EXPECT_EQ(stats.partial_transfers, 0);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_EQ(router(1).buffer().count(), 3u);
  EXPECT_EQ(router(0).end_calls, 1);
  EXPECT_EQ(router(1).end_calls, 1);
}

TEST_F(ContactSessionTest, PolicyCutChargesPartialAndDiscardsCopy) {
  init(3);
  const auto ids = load(0, 2, 5, 1_KB);
  begin_metrics();
  ContactConfig config;
  config.link.interruption_rate = 1.0;  // every contact is cut
  config.link.min_completion = 0.5;
  config.link.max_completion = 0.5;  // exactly half the opportunity survives
  const Meeting m{0, 1, 10.0, 5_KB};  // cut after 2.5 KB
  const ContactStats stats = run_contact(router(0), router(1), m, 0, config, pool_, metrics_);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.transfers, 2);           // two complete copies
  EXPECT_EQ(stats.partial_transfers, 1);   // the third died mid-air
  EXPECT_EQ(stats.partial_bytes, 512);
  EXPECT_EQ(stats.data_bytes, 2_KB + 512);  // burned bytes are charged
  // The incomplete copy was discarded: receiver holds exactly the 2 full ones.
  EXPECT_EQ(router(1).buffer().count(), 2u);
  EXPECT_FALSE(router(1).buffer().contains(ids[2]));
  // contact_end fired on both sides despite the interruption.
  EXPECT_EQ(router(0).end_calls, 1);
  EXPECT_EQ(router(1).end_calls, 1);
  // The charged bytes flow into the run metrics.
  const SimResult r = metrics_.finalize(pool_, 1000);
  EXPECT_EQ(r.partial_transfers, 1u);
  EXPECT_EQ(r.partial_bytes, 512);
  EXPECT_EQ(r.data_bytes, 2_KB + 512);
}

TEST_F(ContactSessionTest, PolicyCutIsDeterministicPerMeetingIndex) {
  ContactConfig config;
  config.link.interruption_rate = 0.5;
  auto outcome_of = [&](int meeting_index) {
    PacketPool pool;
    MetricsCollector metrics;
    SimContext ctx;
    ctx.pool = &pool;
    ctx.metrics = &metrics;
    ctx.num_nodes = 3;
    ScriptedRouter x(0, -1, &ctx), y(1, -1, &ctx);
    // Enough traffic that a drawn cut always lands mid-stream: 9 KB of copies
    // against a 10 KB opportunity whose surviving fraction is at most 0.9.
    for (int i = 0; i < 9; ++i) {
      Packet p;
      p.src = 0;
      p.dst = 2;
      p.size = 1_KB;
      p.created = static_cast<Time>(i);
      const PacketId id = pool.add(p);
      x.buffer().insert(id, 1_KB);
      x.script.push_back(id);
    }
    metrics.begin(pool);
    const Meeting m{0, 1, 10.0, 10_KB};
    return run_contact(x, y, m, meeting_index, config, pool, metrics).interrupted;
  };
  bool saw_cut = false, saw_clean = false;
  for (int i = 0; i < 32; ++i) {
    const bool first = outcome_of(i);
    EXPECT_EQ(first, outcome_of(i)) << "meeting " << i;  // replays identically
    (first ? saw_cut : saw_clean) = true;
  }
  EXPECT_TRUE(saw_cut);
  EXPECT_TRUE(saw_clean);
}

TEST_F(ContactSessionTest, AsymmetricBudgetsBoundEachDirection) {
  init(4);
  const auto forward_ids = load(0, 2, 6, 1_KB);
  const auto reverse_ids = load(1, 3, 6, 1_KB);
  begin_metrics();
  ContactConfig config;
  config.link.forward_fraction = 0.75;  // a->b gets 3 KB, b->a gets 1 KB
  const Meeting m{0, 1, 10.0, 4_KB};
  const ContactStats stats = run_contact(router(0), router(1), m, 0, config, pool_, metrics_);
  // Forward direction carried exactly 3 copies, reverse exactly 1.
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(router(1).buffer().contains(forward_ids[static_cast<std::size_t>(i)])) << i;
  EXPECT_FALSE(router(1).buffer().contains(forward_ids[3]));
  EXPECT_TRUE(router(0).buffer().contains(reverse_ids[0]));
  EXPECT_FALSE(router(0).buffer().contains(reverse_ids[1]));
  EXPECT_EQ(stats.transfers, 4);
  EXPECT_EQ(stats.data_bytes, 4_KB);
}

TEST_F(ContactSessionTest, MetadataRidesItsOwnUplinkWhenAsymmetric) {
  init(3);
  router(0).metadata_to_send = 1_KB;
  load(0, 2, 6, 1_KB);
  begin_metrics();
  ContactConfig config;
  config.link.forward_fraction = 0.5;  // 2 KB per direction
  const Meeting m{0, 1, 10.0, 4_KB};
  const ContactStats stats = run_contact(router(0), router(1), m, 0, config, pool_, metrics_);
  // Node 0's metadata consumed 1 KB of its own 2 KB uplink: one copy crossed.
  EXPECT_EQ(stats.metadata_bytes, 1_KB);
  EXPECT_EQ(router(1).buffer().count(), 1u);
}

TEST_F(ContactSessionTest, EvictionRefusalRejectsAndSkips) {
  init(3);
  // Receiver can hold exactly one packet and refuses to evict (scripted
  // choose_drop_victim returns kNoPacket): later copies come back kRejected,
  // burn bandwidth, and land in the sender's contact skip set.
  routers_[1] = std::make_unique<ScriptedRouter>(1, 1_KB, &ctx_);
  const auto ids = load(0, 2, 3, 1_KB);
  begin_metrics();
  const Meeting m{0, 1, 10.0, 10_KB};
  const ContactStats stats =
      run_contact(router(0), router(1), m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(router(1).buffer().count(), 1u);
  EXPECT_EQ(stats.transfers, 3);  // all three crossed the air
  ASSERT_EQ(router(0).sent_fail.size(), 2u);
  EXPECT_EQ(router(0).sent_fail[0], ids[1]);
  EXPECT_EQ(router(0).sent_fail[1], ids[2]);
}

TEST_F(ContactSessionTest, RapidRefusesDropVictimWhenIncomingIsLeastUseful) {
  // RAPID's eviction policy protects a node's own un-acked packets; an
  // incoming relay copy that cannot displace anything is kRejected and the
  // receiver records no drop.
  PacketPool pool;
  MetricsCollector metrics;
  SimContext ctx;
  ctx.pool = &pool;
  ctx.metrics = &metrics;
  ctx.num_nodes = 4;
  RouterOracle oracle;
  oracle.reset(4);
  ctx.oracle = &oracle;
  RapidConfig config;
  RapidRouter sender(0, -1, &ctx, config);
  RapidRouter receiver(1, 2_KB, &ctx, config);
  oracle.set(0, &sender);
  oracle.set(1, &receiver);

  auto add_packet = [&](NodeId src, NodeId dst, Time created) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = 1_KB;
    p.created = created;
    return pool.add(p);
  };
  // Two packets the receiver itself sourced fill its buffer; own un-acked
  // packets are protected from eviction.
  const PacketId own_a = add_packet(1, 3, 0.0);
  const PacketId own_b = add_packet(1, 3, 1.0);
  const PacketId incoming = add_packet(0, 3, 2.0);
  metrics.begin(pool);
  ASSERT_TRUE(receiver.on_generate(pool.get(own_a)));
  ASSERT_TRUE(receiver.on_generate(pool.get(own_b)));
  sender.on_generate(pool.get(incoming));

  const ReceiveOutcome outcome = receiver.receive_copy(pool.get(incoming), sender, 0, 10.0);
  EXPECT_EQ(outcome, ReceiveOutcome::kRejected);
  EXPECT_EQ(receiver.drops(), 0u);
  EXPECT_TRUE(receiver.buffer().contains(own_a));
  EXPECT_TRUE(receiver.buffer().contains(own_b));
  EXPECT_FALSE(receiver.buffer().contains(incoming));
}

TEST_F(ContactSessionTest, ZeroCompletionCutMovesNoData) {
  init(3);
  load(0, 2, 2, 1_KB);
  router(0).metadata_to_send = 2_KB;
  begin_metrics();
  ContactConfig config;
  config.link.interruption_rate = 1.0;
  config.link.min_completion = 0.1;
  config.link.max_completion = 0.1;
  const Meeting m{0, 1, 10.0, 10_KB};  // survives 1 KB; metadata alone is 2 KB
  const ContactStats stats = run_contact(router(0), router(1), m, 0, config, pool_, metrics_);
  EXPECT_EQ(stats.data_bytes, 0);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.transfers, 0);
  EXPECT_EQ(stats.partial_transfers, 0);
  EXPECT_EQ(router(1).buffer().count(), 0u);
  EXPECT_EQ(router(0).end_calls, 1);
  EXPECT_EQ(router(1).end_calls, 1);
}

}  // namespace
}  // namespace rapid
