#include "baselines/epidemic.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"
#include "util/binio.h"
#include "util/slab.h"

namespace rapid {

EpidemicRouter::EpidemicRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                               const EpidemicConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {}

void EpidemicRouter::note_arrival(PacketId id) {
  if (arrival_seq_ > std::numeric_limits<std::uint32_t>::max())
    throw std::overflow_error("EpidemicRouter: arrival numbers exhausted (2^32 stores)");
  const auto seq = static_cast<std::uint32_t>(arrival_seq_++);
  grow_slot(arrival_, id, std::uint32_t{0}) = seq;
  if (!queue_built_) return;
  if (queue_.size() >= 2 * buffer().count() + 32) {
    // Keep the live entries, in order, at the front: at least half the
    // queue goes, so compaction is O(1) amortized and the queue O(buffer).
    std::size_t kept = 0;
    for (std::size_t i = queue_head_; i < queue_.size(); ++i)
      if (live(queue_[i])) queue_[kept++] = queue_[i];
    queue_.resize(kept);
    queue_head_ = 0;
  }
  queue_.push_back({seq, static_cast<std::uint32_t>(id)});
}

bool EpidemicRouter::live(const Arrival& a) const {
  return buffer().contains(a.id) && a.id < arrival_.size() && arrival_[a.id] == a.seq;
}

void EpidemicRouter::build_queue() {
  queue_built_ = true;
  queue_.clear();
  queue_.reserve(2 * buffer().count() + 32);
  queue_head_ = 0;
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const auto slot = static_cast<std::uint32_t>(id);
    queue_.push_back({slot < arrival_.size() ? arrival_[slot] : 0, slot});
  });
  // Buffered packets hold distinct arrival numbers, so the order is total.
  std::sort(queue_.begin(), queue_.end(),
            [](const Arrival& a, const Arrival& b) { return a.seq < b.seq; });
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
  // FIFO: drop the copy that has been on board the longest. The head entry
  // stays until the drop makes it stale; the next call skips it.
  if (!queue_built_) build_queue();
  for (; queue_head_ < queue_.size(); ++queue_head_) {
    ++evict_scanned_;
    if (live(queue_[queue_head_])) return queue_[queue_head_].id;
  }
  return kNoPacket;
}

void EpidemicRouter::flush_obs(obs::ObsContext& out) const {
  out.metrics.add(obs::Counter::kEvictScanned, evict_scanned_);
}

void EpidemicRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("EPID");
  out.u64(arrival_seq_);
  // Arrival numbers matter only for packets still on board (the queue
  // skips every other entry, and re-storing assigns a new number). They go
  // out as u64, the width of the counter they come from.
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
    const std::uint64_t seq = in.u64();
    if (seq > std::numeric_limits<std::uint32_t>::max())
      BinReader::fail("arrival number wider than 32 bits");
    grow_slot(arrival_, id, std::uint32_t{0}) = static_cast<std::uint32_t>(seq);
  }
  queue_.clear();
  queue_head_ = 0;
  queue_built_ = false;
}

RouterFactory make_epidemic_factory(const EpidemicConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<EpidemicRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
