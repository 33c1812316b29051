#include "baselines/spray_wait.h"

#include <algorithm>
#include <stdexcept>

#include "util/binio.h"
#include "util/slab.h"

namespace rapid {

SprayWaitRouter::SprayWaitRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                                 const SprayWaitConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {
  if (config.initial_copies < 1)
    throw std::invalid_argument("SprayWaitRouter: initial_copies < 1");
}

int SprayWaitRouter::copies_of(PacketId id) const {
  return static_cast<std::size_t>(id) < copies_.size()
             ? copies_[static_cast<std::size_t>(id)]
             : 0;
}

void SprayWaitRouter::set_copies(PacketId id, int copies) {
  grow_slot(copies_, id, std::int32_t{0}) = copies;
}

bool SprayWaitRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  set_copies(p.id, config_.initial_copies);
  return true;
}

void SprayWaitRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t aux,
                                Time /*now*/) {
  set_copies(p.id, static_cast<int>(std::max<std::int64_t>(1, aux)));
}

void SprayWaitRouter::on_dropped(const Packet& p, Time /*now*/) { set_copies(p.id, 0); }

void SprayWaitRouter::on_acked(const Packet& p, Time /*now*/) { set_copies(p.id, 0); }

void SprayWaitRouter::build_plan(const ContactContext& /*contact*/, const PeerView& peer) {
  for (const auto& [created, id] : oldest_first()) {
    if (ctx().packet(id).dst == peer.self()) {
      plan().direct.push_back(id);
    } else if (copies_of(id) > 1) {
      plan().replicate.push_back(id);  // wait phase (1 copy) never replicates
    }
  }
}

bool SprayWaitRouter::may_replicate(const Packet& p) const { return copies_of(p.id) > 1; }

std::int64_t SprayWaitRouter::transfer_aux(const Packet& p, const PeerView& /*peer*/) {
  // Binary spray: hand over half the copies.
  return copies_of(p.id) / 2;
}

void SprayWaitRouter::on_transfer_success(const Packet& p, const PeerView& /*peer*/,
                                          ReceiveOutcome outcome, Time /*now*/) {
  if (outcome != ReceiveOutcome::kStored) return;
  const int current = copies_of(p.id);
  if (current == 0) return;
  set_copies(p.id, std::max(1, current - current / 2));  // keep the ceiling half
}

PacketId SprayWaitRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  return random_victim();
}

void SprayWaitRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("SPRY");
  std::uint64_t tracked = 0;
  for (std::int32_t c : copies_) tracked += c != 0 ? 1 : 0;
  out.u64(tracked);
  for (std::size_t id = 0; id < copies_.size(); ++id) {
    if (copies_[id] == 0) continue;
    out.i64(static_cast<std::int64_t>(id));
    out.i64(copies_[id]);
  }
}

void SprayWaitRouter::load_state(BinReader& in) {
  Router::load_state(in);
  in.expect_tag("SPRY");
  const std::uint64_t tracked = in.u64();
  for (std::uint64_t i = 0; i < tracked; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    set_copies(id, static_cast<int>(in.i64()));
  }
}

RouterFactory make_spray_wait_factory(const SprayWaitConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<SprayWaitRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
