#include "baselines/random_router.h"

#include <algorithm>

namespace rapid {

RandomRouter::RandomRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                           const RandomConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {}

bool RandomRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  age_order_.insert(p.created, p.id);
  return true;
}

void RandomRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t /*aux*/,
                             Time /*now*/) {
  age_order_.insert(p.created, p.id);
}

void RandomRouter::on_dropped(const Packet& p, Time /*now*/) {
  age_order_.remove(p.created, p.id);
}

void RandomRouter::on_acked(const Packet& p, Time /*now*/) {
  age_order_.remove(p.created, p.id);
}

Bytes RandomRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);
  if (config_.flood_acks) {
    // Ack flooding is this variant's only control traffic; cap at budget.
    const Bytes used = exchange_acks(peer, now);
    return std::min(used, meta_budget);
  }
  return 0;
}

void RandomRouter::build_plan(const PeerView& peer) {
  mark_plan_built();
  direct_order_.clear();
  direct_cursor_ = 0;
  shuffled_.clear();
  shuffle_cursor_ = 0;
  // Oldest first for direct delivery straight from the maintained order;
  // uniformly random replication order over the rest.
  for (const auto& [created, id] : age_order_.entries()) {
    (ctx().packet(id).dst == peer.self() ? direct_order_ : shuffled_).push_back(id);
  }
  rng().shuffle(shuffled_);
}

std::optional<PacketId> RandomRouter::next_transfer(const ContactContext& contact,
                                                    const PeerView& peer) {
  if (!plan_current()) build_plan(peer);
  while (direct_cursor_ < direct_order_.size()) {
    const PacketId id = direct_order_[direct_cursor_];
    ++direct_cursor_;
    if (!buffer().contains(id) || peer.has_received(id) || contact_skipped(id)) continue;
    if (ctx().packet(id).size > contact.remaining) continue;
    return id;
  }
  while (shuffle_cursor_ < shuffled_.size()) {
    const PacketId id = shuffled_[shuffle_cursor_];
    ++shuffle_cursor_;
    if (!buffer().contains(id)) continue;
    const Packet& p = ctx().packet(id);
    if (!peer_wants(peer, p)) continue;
    if (p.size > contact.remaining) continue;
    return id;
  }
  return std::nullopt;
}

void RandomRouter::on_transfer_success(const Packet& p, const PeerView& /*peer*/,
                                       ReceiveOutcome outcome, Time now) {
  if (config_.flood_acks && (outcome == ReceiveOutcome::kDelivered ||
                             outcome == ReceiveOutcome::kDuplicateDelivery)) {
    learn_ack(p.id, now);
  }
}

PacketId RandomRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  const Span<Buffer::Entry> entries = buffer().entries();
  if (entries.empty()) return kNoPacket;
  return entries[static_cast<std::size_t>(
                     rng().uniform_int(0, static_cast<std::int64_t>(entries.size()) - 1))]
      .id;
}

void RandomRouter::load_state(BinReader& in) {
  Router::load_state(in);
  age_order_.clear();
  buffer().for_each(
      [&](PacketId id, Bytes /*size*/) { age_order_.insert(ctx().packet(id).created, id); });
}

RouterFactory make_random_factory(const RandomConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<RandomRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
