#include "baselines/epidemic.h"

#include <algorithm>

#include "util/binio.h"
#include "util/slab.h"

namespace rapid {

EpidemicRouter::EpidemicRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                               const EpidemicConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {}

void EpidemicRouter::note_arrival(PacketId id) {
  grow_slot(arrival_, id, std::uint64_t{0}) = arrival_seq_++;
}

bool EpidemicRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  note_arrival(p.id);
  return true;
}

void EpidemicRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t /*aux*/,
                               Time /*now*/) {
  note_arrival(p.id);
}

Bytes EpidemicRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);
  if (config_.flood_acks) return std::min(exchange_acks(peer, now), meta_budget);
  return 0;
}

void EpidemicRouter::build_plan(const ContactContext& /*contact*/, const PeerView& peer) {
  for (const auto& [created, id] : oldest_first())
    (ctx().packet(id).dst == peer.self() ? plan().direct : plan().replicate).push_back(id);
}

void EpidemicRouter::on_transfer_success(const Packet& p, const PeerView& /*peer*/,
                                         ReceiveOutcome outcome, Time now) {
  if (config_.flood_acks && (outcome == ReceiveOutcome::kDelivered ||
                             outcome == ReceiveOutcome::kDuplicateDelivery)) {
    learn_ack(p.id, now);
  }
}

PacketId EpidemicRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  // FIFO: drop the copy that has been on board the longest.
  PacketId victim = kNoPacket;
  std::uint64_t oldest = 0;
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const std::uint64_t seq = static_cast<std::size_t>(id) < arrival_.size()
                                  ? arrival_[static_cast<std::size_t>(id)]
                                  : 0;
    if (victim == kNoPacket || seq < oldest) {
      victim = id;
      oldest = seq;
    }
  });
  return victim;
}

void EpidemicRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("EPID");
  out.u64(arrival_seq_);
  // Arrival sequence numbers matter only for packets still on board (the
  // FIFO victim scan reads nothing else; re-storing reassigns).
  out.u64(buffer().count());
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    out.i64(id);
    out.u64(static_cast<std::size_t>(id) < arrival_.size()
                ? arrival_[static_cast<std::size_t>(id)]
                : 0);
  });
}

void EpidemicRouter::load_state(BinReader& in) {
  Router::load_state(in);
  in.expect_tag("EPID");
  arrival_seq_ = in.u64();
  const std::uint64_t buffered = in.u64();
  for (std::uint64_t i = 0; i < buffered; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    grow_slot(arrival_, id, std::uint64_t{0}) = in.u64();
  }
}

RouterFactory make_epidemic_factory(const EpidemicConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<EpidemicRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
