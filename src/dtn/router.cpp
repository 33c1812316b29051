#include "dtn/router.h"

#include "dtn/metrics.h"
#include "obs/obs.h"
#include "util/binio.h"
#include "util/slab.h"

namespace rapid {

namespace {

// The run's metrics collector, or null for a router built without one.
MetricsCollector* metrics_sink(const SimContext* ctx) {
  return ctx != nullptr ? ctx->metrics : nullptr;
}

}  // namespace

Router::Router(NodeId self, Bytes buffer_capacity, const SimContext* ctx)
    : self_(self),
      buffer_(buffer_capacity),
      ctx_(ctx),
      rng_(0x5eedULL + static_cast<std::uint64_t>(self) * 0x9e3779b97f4a7c15ULL) {
  // The pool is fully generated before the simulation starts; sizing the
  // per-packet tables once avoids growth churn on the contact path.
  if (ctx_ != nullptr && ctx_->pool != nullptr && ctx_->pool->size() > 0) {
    received_.resize(ctx_->pool->size(), 0);
    skip_epoch_.resize(ctx_->pool->size(), 0);
  }
}

ScratchArena& Router::arena() const {
  if (ctx_ != nullptr && ctx_->arena != nullptr) return *ctx_->arena;
  if (own_arena_ == nullptr) own_arena_ = std::make_unique<ScratchArena>();
  return *own_arena_;
}

bool Router::on_generate(const Packet& p) {
  if (p.dst == self_) return false;  // degenerate; workload never produces this
  return store_with_eviction(p, p.created);
}

void Router::observe_opportunity(Bytes /*capacity*/, NodeId /*peer*/, Time /*now*/) {}

Bytes Router::contact_begin(const PeerView& /*peer*/, Time /*now*/, Bytes /*meta_budget*/) {
  // Epoch bump = O(1) clear of the skip marks.
  ++epoch_;
  plan_built_ = false;
  return 0;
}

void Router::on_transfer_success(const Packet& /*p*/, const PeerView& /*peer*/,
                                 ReceiveOutcome /*outcome*/, Time /*now*/) {}

void Router::on_transfer_failed(const Packet& p, const PeerView& /*peer*/, Time /*now*/) {
  mark_skipped(p.id);
}

ReceiveOutcome Router::receive_copy(const Packet& p, const PeerView& from, std::int64_t aux,
                                    Time now) {
  if (p.dst == self_) {
    if (has_received(p.id)) return ReceiveOutcome::kDuplicateDelivery;
    grow_slot(received_, p.id, std::uint8_t{0}) = 1;
    // The destination has "sufficient capacity to store delivered packets"
    // (§3.1); the copy does not occupy the in-transit buffer.
    learn_ack(p.id, now);
    on_delivered_here(p, now);
    return ReceiveOutcome::kDelivered;
  }
  if (buffer_.contains(p.id)) return ReceiveOutcome::kDuplicate;
  if (knows_ack(p.id)) return ReceiveOutcome::kDuplicate;  // already delivered elsewhere
  if (!store_with_eviction(p, now)) return ReceiveOutcome::kRejected;
  on_stored(p, from.self(), aux, now);
  return ReceiveOutcome::kStored;
}

std::optional<PacketId> Router::next_transfer(const ContactContext& contact,
                                              const PeerView& peer) {
  if (!plan_built_) {
    plan_built_ = true;
    plan_.direct.clear();
    plan_.replicate.clear();
    direct_next_ = 0;
    replicate_next_ = 0;
    build_plan(contact, peer);
  }
  while (direct_next_ < plan_.direct.size()) {
    const PacketId id = plan_.direct[direct_next_++];
    if (!buffer_.contains(id) || peer.has_received(id) || contact_skipped(id)) continue;
    if (ctx_->packet(id).size > contact.remaining) continue;
    return id;
  }
  while (replicate_next_ < plan_.replicate.size()) {
    const PacketId id = plan_.replicate[replicate_next_++];
    if (!buffer_.contains(id)) continue;  // dropped or acked mid-contact
    const Packet& p = ctx_->packet(id);
    if (!peer_wants(peer, p) || p.size > contact.remaining || !may_replicate(p)) continue;
    return id;
  }
  return std::nullopt;
}

void Router::build_plan(const ContactContext& /*contact*/, const PeerView& /*peer*/) {}

bool Router::may_replicate(const Packet& /*p*/) const { return true; }

void Router::contact_end(const PeerView& /*peer*/, Time /*now*/) {
  // Bump again so marks set during the contact go stale immediately.
  ++epoch_;
  plan_built_ = false;
}

std::int64_t Router::transfer_aux(const Packet& /*p*/, const PeerView& /*peer*/) { return 0; }

void Router::mark_skipped(PacketId id) { grow_slot(skip_epoch_, id) = epoch_; }

bool Router::peer_wants(const PeerView& peer, const Packet& p) const {
  if (contact_skipped(p.id)) return false;
  if (peer.has_packet(p.id)) return false;
  if (peer.has_received(p.id)) return false;
  if (knows_ack(p.id) || peer.knows_ack(p.id)) return false;
  return true;
}

void Router::learn_ack(PacketId id, Time when) {
  if (!acked_.insert(id, when)) return;
  const Packet& p = ctx_->pool->get(id);
  if (buffer_erase(p)) {
    if (MetricsCollector* metrics = metrics_sink(ctx_)) metrics->record_ack_purge(self_);
  }
  on_acked(p, when);
}

Bytes Router::exchange_acks(const PeerView& peer, Time now) {
  // Delta exchange: each side sends the entries the other lacks; 8 bytes per
  // packet id on the wire. Both walks run in place over the packed ack
  // tables: learning into the *other* table never perturbs the one being
  // iterated, and entries appended to the peer during the first walk are by
  // construction already known to us, so the second walk skips them.
  std::size_t sent = 0;
  for (const AckTable::Entry& e : acked_.entries()) {
    if (peer.knows_ack(e.id)) continue;
    peer.learn_ack(e.id, now);
    ++sent;
  }
  std::size_t received = 0;
  const Span<AckTable::Entry> theirs = peer.acks().entries();
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    const AckTable::Entry e = theirs[i];
    if (knows_ack(e.id)) continue;
    learn_ack(e.id, now);
    ++received;
  }
  return static_cast<Bytes>(8) * static_cast<Bytes>(sent + received);
}

bool Router::store_with_eviction(const Packet& p, Time now) {
  if (buffer_insert(p)) return true;
  if (buffer_.capacity() >= 0 && p.size > buffer_.capacity()) return false;
  while (!buffer_.fits(p.size)) {
    const PacketId victim = choose_drop_victim(p, now);
    if (victim == kNoPacket) return false;
    drop(ctx_->pool->get(victim), now);
  }
  return buffer_insert(p);
}

bool Router::buffer_insert(const Packet& p) {
  if (!buffer_.insert(p.id, p.size)) return false;
  if (age_tracked_) {
    age_order_.insert(p.created, p.id);
    // Removed entries leave only at a read; fold them in here if the
    // protocol reads too rarely, so the order stays O(buffer).
    if (age_order_.size() > 2 * buffer_.count() + 64) oldest_first();
  }
  return true;
}

bool Router::buffer_erase(const Packet& p) {
  if (!buffer_.erase(p.id)) return false;
  if (age_tracked_) age_order_.note_removal();
  return true;
}

void Router::drop(const Packet& p, Time now) {
  buffer_erase(p);
  ++drops_;
  if (MetricsCollector* metrics = metrics_sink(ctx_)) metrics->record_drop(self_);
  RAPID_OBS_INC(kRouterDrops);
  RAPID_OBS_TRACE(kPacketDrop, now, self_, kNoNode, p.id, p.size);
  on_dropped(p, now);
}

const std::vector<std::pair<Time, PacketId>>& Router::oldest_first() {
  if (!age_tracked_) {
    age_tracked_ = true;
    for (const Buffer::Entry& e : buffer_.entries())
      age_order_.insert(ctx_->packet(e.id).created, e.id);
  }
  return age_order_.entries(buffer_, arena().age_merge);
}

PacketId Router::random_victim() {
  const Span<Buffer::Entry> entries = buffer_.entries();
  if (entries.empty()) return kNoPacket;
  return entries[static_cast<std::size_t>(
                     rng_.uniform_int(0, static_cast<std::int64_t>(entries.size()) - 1))]
      .id;
}

void Router::on_crash(bool drop_buffers, Time now) {
  if (!drop_buffers) return;
  // Drain back-to-front (erase of the last packed entry never swaps), firing
  // the exact per-drop accounting the eviction path fires, so a crash is
  // indistinguishable from a burst of drops to every downstream consumer.
  while (!buffer_.empty()) drop(ctx_->pool->get(buffer_.entries()[buffer_.count() - 1].id), now);
}

void Router::flush_obs(obs::ObsContext& /*out*/) const {}

void Router::save_state(BinWriter& out) {
  out.tag("ROUT");
  for (std::uint64_t word : rng_.state()) out.u64(word);
  // Buffer in packed order: restore replays the inserts, reproducing the
  // swap-erase-perturbed layout exactly (drop-victim scans and stable-sort
  // tie-breaks iterate it).
  out.u64(buffer_.count());
  buffer_.for_each([&](PacketId id, Bytes size) {
    out.i64(id);
    out.i64(size);
  });
  // Delivery receipts as a sparse id list (the bitmask order is immaterial).
  std::uint64_t received_count = 0;
  for (std::uint8_t flag : received_) received_count += flag != 0 ? 1 : 0;
  out.u64(received_count);
  for (std::size_t id = 0; id < received_.size(); ++id)
    if (received_[id] != 0) out.i64(static_cast<std::int64_t>(id));
  // Ack table in insertion order (the delta exchange walks it in place, and
  // the walk order shapes what the peer's table looks like afterwards).
  out.u64(acked_.size());
  acked_.for_each([&](PacketId id, Time when) {
    out.i64(id);
    out.f64(when);
  });
  out.u64(drops_);
}

void Router::load_state(BinReader& in) {
  in.expect_tag("ROUT");
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = in.u64();
  rng_.set_state(rng_state);
  age_order_.clear();
  age_tracked_ = false;
  const std::uint64_t buffered = in.u64();
  for (std::uint64_t i = 0; i < buffered; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    const Bytes size = in.i64();
    if (!buffer_.insert(id, size)) BinReader::fail("buffered packet does not fit on restore");
  }
  const std::uint64_t received_count = in.u64();
  for (std::uint64_t i = 0; i < received_count; ++i)
    grow_slot(received_, static_cast<PacketId>(in.i64()), std::uint8_t{0}) = 1;
  const std::uint64_t acks = in.u64();
  for (std::uint64_t i = 0; i < acks; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    const Time when = in.f64();
    acked_.insert(id, when);
  }
  drops_ = in.u64();
}

void Router::on_stored(const Packet& /*p*/, NodeId /*from*/, std::int64_t /*aux*/,
                       Time /*now*/) {}
void Router::on_dropped(const Packet& /*p*/, Time /*now*/) {}
void Router::on_acked(const Packet& /*p*/, Time /*now*/) {}
void Router::on_delivered_here(const Packet& /*p*/, Time /*now*/) {}

}  // namespace rapid
