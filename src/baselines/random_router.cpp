#include "baselines/random_router.h"

#include <algorithm>

namespace rapid {

RandomRouter::RandomRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                           const RandomConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {}

Bytes RandomRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);
  if (config_.flood_acks) {
    // Ack flooding is this variant's only control traffic; cap at budget.
    const Bytes used = exchange_acks(peer, now);
    return std::min(used, meta_budget);
  }
  return 0;
}

void RandomRouter::build_plan(const ContactContext& /*contact*/, const PeerView& peer) {
  for (const auto& [created, id] : oldest_first())
    (ctx().packet(id).dst == peer.self() ? plan().direct : plan().replicate).push_back(id);
  rng().shuffle(plan().replicate);
}

void RandomRouter::on_transfer_success(const Packet& p, const PeerView& /*peer*/,
                                       ReceiveOutcome outcome, Time now) {
  if (config_.flood_acks && (outcome == ReceiveOutcome::kDelivered ||
                             outcome == ReceiveOutcome::kDuplicateDelivery)) {
    learn_ack(p.id, now);
  }
}

PacketId RandomRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  return random_victim();
}

RouterFactory make_random_factory(const RandomConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<RandomRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
