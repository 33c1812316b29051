// Contact-mechanics tests with a scripted router: budget accounting,
// alternation, rejection handling, metadata caps, delivery recording.
#include <gtest/gtest.h>

#include <deque>

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
  std::deque<PacketId> script;       // packets to offer, in order
  std::vector<PacketId> sent_ok;     // successful transfers
  std::vector<PacketId> sent_fail;   // rejected transfers
  int begin_calls = 0;
  int end_calls = 0;

  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override {
    Router::contact_begin(peer, now, meta_budget);
    ++begin_calls;
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

  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override {
    Router::on_transfer_success(p, peer, outcome, now);
    sent_ok.push_back(p.id);
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
    return kNoPacket;  // never evict: rejections are the point of some tests
  }
};

class ContactTest : public ::testing::Test {
 protected:
  void init(int nodes, Bytes capacity_x, Bytes capacity_y) {
    ctx_.pool = &pool_;
    ctx_.metrics = &metrics_;
    ctx_.num_nodes = nodes;
    x_ = std::make_unique<ScriptedRouter>(0, capacity_x, &ctx_);
    y_ = std::make_unique<ScriptedRouter>(1, capacity_y, &ctx_);
  }

  PacketId make_packet(NodeId src, NodeId dst, Bytes size, Time created = 0) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = size;
    p.created = created;
    return pool_.add(p);
  }

  void begin_metrics() {
    metrics_.begin(pool_);
  }

  PacketPool pool_;
  MetricsCollector metrics_;
  SimContext ctx_;
  std::unique_ptr<ScriptedRouter> x_;
  std::unique_ptr<ScriptedRouter> y_;
};

TEST_F(ContactTest, TransfersUntilBudgetExhausted) {
  init(3, -1, -1);
  std::vector<PacketId> ids;
  for (int i = 0; i < 5; ++i) {
    const PacketId id = make_packet(0, 2, 1_KB);
    x_->buffer().insert(id, 1_KB);
    x_->script.push_back(id);
    ids.push_back(id);
  }
  begin_metrics();
  const Meeting m{0, 1, 10.0, 3_KB};  // room for exactly 3 packets
  const auto stats = run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.transfers, 3);
  EXPECT_EQ(stats.data_bytes, 3_KB);
  EXPECT_EQ(x_->sent_ok.size(), 3u);
  EXPECT_EQ(y_->buffer().count(), 3u);
}

TEST_F(ContactTest, DeliveryRecordedAndAcked) {
  init(2, -1, -1);
  const PacketId id = make_packet(0, 1, 1_KB);
  x_->buffer().insert(id, 1_KB);
  x_->script.push_back(id);
  begin_metrics();
  const Meeting m{0, 1, 10.0, 10_KB};
  const auto stats = run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.deliveries, 1);
  EXPECT_TRUE(metrics_.is_delivered(id));
  EXPECT_DOUBLE_EQ(metrics_.delivery_time(id), 10.0);
  EXPECT_TRUE(y_->has_received(id));
  EXPECT_TRUE(y_->knows_ack(id));
}

TEST_F(ContactTest, AlternatesBetweenSides) {
  init(4, -1, -1);
  const PacketId from_x = make_packet(0, 2, 1_KB);
  const PacketId from_y = make_packet(1, 3, 1_KB);
  x_->buffer().insert(from_x, 1_KB);
  x_->script.push_back(from_x);
  y_->buffer().insert(from_y, 1_KB);
  y_->script.push_back(from_y);
  begin_metrics();
  const Meeting m{0, 1, 5.0, 2_KB};
  const auto stats = run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.transfers, 2);  // both sides got their packet across
  EXPECT_TRUE(y_->buffer().contains(from_x));
  EXPECT_TRUE(x_->buffer().contains(from_y));
}

TEST_F(ContactTest, MetadataChargedAgainstBudget) {
  init(3, -1, -1);
  x_->metadata_to_send = 2_KB;
  const PacketId id = make_packet(0, 2, 1_KB);
  x_->buffer().insert(id, 1_KB);
  x_->script.push_back(id);
  begin_metrics();
  const Meeting m{0, 1, 2_KB + 512, 2_KB + 512};
  const auto stats = run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.metadata_bytes, 2_KB);
  EXPECT_EQ(stats.transfers, 0);  // only 512 bytes left, packet needs 1 KB
}

TEST_F(ContactTest, MetadataCapFractionLimitsExchange) {
  init(3, -1, -1);
  x_->metadata_to_send = 100_KB;
  y_->metadata_to_send = 100_KB;
  begin_metrics();
  const Meeting m{0, 1, 1.0, 10_KB};
  ContactConfig config;
  config.metadata_cap_fraction = 0.1;  // 1 KB total metadata allowed
  const auto stats = run_contact(*x_, *y_, m, 0, config, pool_, metrics_);
  EXPECT_LE(stats.metadata_bytes, 1_KB);
}

TEST_F(ContactTest, RejectionConsumesBandwidthAndSkips) {
  init(3, -1, 1_KB);  // y can hold exactly one packet
  std::vector<PacketId> ids;
  for (int i = 0; i < 3; ++i) {
    const PacketId id = make_packet(0, 2, 1_KB);
    x_->buffer().insert(id, 1_KB);
    x_->script.push_back(id);
    ids.push_back(id);
  }
  begin_metrics();
  const Meeting m{0, 1, 1.0, 10_KB};
  const auto stats = run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  // First stored; the rest rejected but still burn bandwidth.
  EXPECT_EQ(y_->buffer().count(), 1u);
  EXPECT_EQ(stats.transfers, 3);
  EXPECT_EQ(x_->sent_fail.size(), 2u);
  const SimResult r = metrics_.finalize(pool_, 1000);
  EXPECT_EQ(r.data_bytes, 3_KB);
}

TEST_F(ContactTest, ContactLifecycleHooksFire) {
  init(2, -1, -1);
  begin_metrics();
  const Meeting m{0, 1, 1.0, 1_KB};
  run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(x_->begin_calls, 1);
  EXPECT_EQ(y_->begin_calls, 1);
  EXPECT_EQ(x_->end_calls, 1);
  EXPECT_EQ(y_->end_calls, 1);
}

TEST_F(ContactTest, NoRetransferToDestinationThatHasThePacket) {
  init(2, -1, -1);
  const PacketId id = make_packet(0, 1, 1_KB);
  x_->buffer().insert(id, 1_KB);
  x_->script.push_back(id);
  begin_metrics();
  const Meeting m1{0, 1, 5.0, 10_KB};
  run_contact(*x_, *y_, m1, 0, ContactConfig{}, pool_, metrics_);
  ASSERT_TRUE(metrics_.is_delivered(id));
  EXPECT_TRUE(y_->knows_ack(id));
  // A second meeting must not re-deliver: peer_wants() sees has_received.
  x_->script.push_back(id);
  const Meeting m2{0, 1, 8.0, 10_KB};
  const auto stats = run_contact(*x_, *y_, m2, 1, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.transfers, 0);
}

TEST_F(ContactTest, ZeroCapacityMeetingMovesNothing) {
  init(3, -1, -1);
  const PacketId id = make_packet(0, 2, 1_KB);
  x_->buffer().insert(id, 1_KB);
  x_->script.push_back(id);
  begin_metrics();
  const Meeting m{0, 1, 1.0, 0};
  const auto stats = run_contact(*x_, *y_, m, 0, ContactConfig{}, pool_, metrics_);
  EXPECT_EQ(stats.transfers, 0);
  EXPECT_EQ(stats.data_bytes, 0);
}

}  // namespace
}  // namespace rapid
