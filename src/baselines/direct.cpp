#include "baselines/direct.h"

namespace rapid {

DirectRouter::DirectRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx)
    : Router(self, buffer_capacity, ctx) {}

void DirectRouter::build_plan(const ContactContext& /*contact*/, const PeerView& peer) {
  for (const auto& [created, id] : oldest_first())
    if (ctx().packet(id).dst == peer.self()) plan().direct.push_back(id);
}

PacketId DirectRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  // The buffer only ever holds this node's own packets; refuse to drop them.
  return kNoPacket;
}

RouterFactory make_direct_factory(Bytes buffer_capacity) {
  return [buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<DirectRouter>(node, buffer_capacity, &ctx);
  };
}

}  // namespace rapid
