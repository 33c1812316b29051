#include "baselines/direct.h"

#include <algorithm>

namespace rapid {

DirectRouter::DirectRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx)
    : Router(self, buffer_capacity, ctx) {}

bool DirectRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  age_order_.insert(p.created, p.id);
  return true;
}

void DirectRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t /*aux*/,
                             Time /*now*/) {
  age_order_.insert(p.created, p.id);
}

void DirectRouter::on_dropped(const Packet& p, Time /*now*/) {
  age_order_.remove(p.created, p.id);
}

void DirectRouter::on_acked(const Packet& p, Time /*now*/) {
  age_order_.remove(p.created, p.id);
}

std::optional<PacketId> DirectRouter::next_transfer(const ContactContext& contact,
                                                    const PeerView& peer) {
  if (!plan_current()) {
    mark_plan_built();
    order_.clear();
    cursor_ = 0;
    for (const auto& [created, id] : age_order_.entries())
      if (ctx().packet(id).dst == peer.self()) order_.push_back(id);
  }
  while (cursor_ < order_.size()) {
    const PacketId id = order_[cursor_];
    ++cursor_;
    if (!buffer().contains(id) || peer.has_received(id) || contact_skipped(id)) continue;
    if (ctx().packet(id).size > contact.remaining) continue;
    return id;
  }
  return std::nullopt;
}

PacketId DirectRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  // The buffer only ever holds this node's own packets; refuse to drop them.
  return kNoPacket;
}

void DirectRouter::load_state(BinReader& in) {
  Router::load_state(in);
  age_order_.clear();
  buffer().for_each(
      [&](PacketId id, Bytes /*size*/) { age_order_.insert(ctx().packet(id).created, id); });
}

RouterFactory make_direct_factory(Bytes buffer_capacity) {
  return [buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<DirectRouter>(node, buffer_capacity, &ctx);
  };
}

}  // namespace rapid
