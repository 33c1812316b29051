// The routing-protocol contract.
//
// The engine owns one Router per node and runs contacts one at a time through
// run_contact (dtn/contact_session.h), so a router is in at most one open
// contact. Within a contact the protocol hooks fire in the classic order:
//
//   1. contact_begin on both sides — metadata / ack exchange, charged against
//      the transfer opportunity;
//   2. alternating next_transfer calls — each returns the packet that side
//      wants to deliver or replicate next. The base class walks a two-tier
//      contact plan: packets destined to the peer first, then replicas. The
//      protocol only fills the tiers, once per contact side, in build_plan;
//      the walk re-checks every id against the live buffer, the peer and the
//      remaining budget, so the plan stays valid while the contact runs;
//   3. receive_copy on the receiving side — enforces storage by asking the
//      protocol for drop victims;
//   4. contact_end on both sides.
//
// Routers never touch the peer Router directly. They see a PeerView: the
// narrow projection of what the two radios actually learn about each other at
// link-up (identity, packet possession, delivery acknowledgments), plus a
// typed channel for richer same-protocol metadata exchange. This formalizes
// the metadata channel that DTN simulators traditionally model with mutable
// cross-references.
//
// Hot-path state is flat: packet ids are dense pool indexes, so delivery
// receipts and acknowledgments are direct-indexed tables (dtn/ack_table.h),
// and the per-contact skip set is one epoch stamp per packet — contact_begin
// and contact_end bump the router's epoch instead of clearing a container,
// which makes the reset O(1) and the whole contact path allocation-free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dtn/ack_table.h"
#include "dtn/age_order.h"
#include "dtn/buffer.h"
#include "dtn/packet.h"
#include "dtn/schedule.h"
#include "util/rng.h"
#include "util/types.h"

namespace rapid {

class BinReader;  // util/binio.h
class BinWriter;
class Router;
class MetricsCollector;
struct PacketMetadata;  // core/metadata.h

namespace obs {
class ObsContext;  // obs/obs.h
}

// Reusable per-simulation scratch storage for contact processing: the
// buffers that used to be allocated fresh inside every contact (delta-
// exchange walks, plan fallbacks) live here and keep their capacity across
// contacts. Owned by the Simulation (contacts within one simulation run
// strictly sequentially); routers reach it through SimContext and fall back
// to a private arena when constructed without one (tests, fixtures).
struct ScratchArena {
  std::vector<std::pair<PacketId, const PacketMetadata*>> changed;  // delta exchange
  std::vector<AgeOrder::Entry> age_merge;  // Router::oldest_first's merge
};

// Global-knowledge escape hatch. Regular protocols must not reach other
// nodes' routers — everything they may know about a peer travels through the
// PeerView of an open contact. The oracle exists for the instant-global-
// control-channel modes of §6.2.3 (and for tests), which by definition see
// the true global state out of band.
class RouterOracle {
 public:
  RouterOracle() = default;

  void reset(int num_nodes) { routers_.assign(static_cast<std::size_t>(num_nodes), nullptr); }
  void set(NodeId node, Router* router) { routers_[static_cast<std::size_t>(node)] = router; }

  // May be null while the engine is still constructing routers.
  Router* at(NodeId node) const { return routers_[static_cast<std::size_t>(node)]; }
  int size() const { return static_cast<int>(routers_.size()); }

 private:
  std::vector<Router*> routers_;
};

// Engine services visible to routers. Deliberately narrow: no access to the
// future schedule (only the offline Optimal router is constructed with it).
struct SimContext {
  const PacketPool* pool = nullptr;
  MetricsCollector* metrics = nullptr;
  // See RouterOracle: only global-channel/oracle modes (and tests) may use it.
  const RouterOracle* oracle = nullptr;
  // Shared contact-processing scratch; null when the context owner does not
  // provide one (routers then use a private arena).
  ScratchArena* arena = nullptr;
  int num_nodes = 0;

  // Hot-loop accessor: ids handed to routers come from the pool, so this is
  // the unchecked path (asserts in debug).
  const Packet& packet(PacketId id) const { return pool->get_unchecked(id); }
};

struct ContactContext {
  Time now = 0;
  Bytes remaining = 0;     // bytes left in this side's transfer budget
  int meeting_index = -1;  // position of this meeting in the schedule
};

enum class ReceiveOutcome {
  kDelivered,          // this node is the destination, first arrival
  kDuplicateDelivery,  // destination already had it
  kStored,             // accepted into the buffer
  kDuplicate,          // already buffered (sender should have known)
  kRejected,           // no room even after eviction policy ran
};

// What one side of a contact may see of — and say to — the other. PeerView is
// a handle with shallow const: a `const PeerView&` still carries the metadata
// channel, because the channel is part of what the link-up handshake IS. The
// sanctioned operations are:
//   * identity and packet-possession queries (what the radios advertise);
//   * delivery-acknowledgment exchange (learn_ack / acks);
//   * `as<Protocol>()` — the typed channel: same-protocol peers may exchange
//     richer state (meeting matrices, replica estimates, likelihood vectors).
class PeerView {
 public:
  /*implicit*/ PeerView(Router& router) : router_(&router) {}

  NodeId self() const;
  bool has_packet(PacketId id) const;    // in-transit buffer membership
  bool has_received(PacketId id) const;  // delivered here (peer is dst)
  bool knows_ack(PacketId id) const;
  const AckTable& acks() const;

  // Push one delivery notification across the link (8 bytes on the wire when
  // the caller charges it; see Router::exchange_acks for the bulk form).
  void learn_ack(PacketId id, Time when) const;

  // Typed protocol-to-protocol metadata channel; null when the peer runs a
  // different protocol (mixed-protocol contacts fall back to the base view).
  template <typename R>
  R* as() const {
    return dynamic_cast<R*>(router_);
  }

 private:
  Router* router_;
};

class Router {
 public:
  Router(NodeId self, Bytes buffer_capacity, const SimContext* ctx);
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  NodeId self() const { return self_; }
  Buffer& buffer() { return buffer_; }
  const Buffer& buffer() const { return buffer_; }
  const SimContext& ctx() const { return *ctx_; }

  // --- protocol hooks -------------------------------------------------------

  // Application created a packet at this node. Default: store it (evicting
  // per policy if needed); returns false if the packet could not be stored.
  virtual bool on_generate(const Packet& p);

  // Called by run_contact at every meeting, before contact_begin, with the
  // size of the transfer opportunity; protocols that track "average size of
  // past transfers" (RAPID Alg. 2 step 3, MaxProp's threshold) observe here.
  virtual void observe_opportunity(Bytes capacity, NodeId peer, Time now);

  // Start of a contact. `meta_budget` caps the metadata bytes this side may
  // send (Fig 8 experiments); return the metadata bytes actually used.
  virtual Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget);

  // The next packet this side wants to push to `peer`, or nullopt when done.
  // The first call of each contact side has build_plan fill the two tiers.
  // The walk then returns the next direct-tier id that is buffered, not yet
  // received by the peer, not skipped and fits `contact.remaining`; once
  // that tier is spent, the next replicate-tier id that is buffered, that
  // peer_wants, that fits and that may_replicate allows. A protocol whose
  // plan has another shape (the offline Optimal schedule) overrides this;
  // an override must not return packets in the contact's skip set.
  virtual std::optional<PacketId> next_transfer(const ContactContext& contact,
                                                const PeerView& peer);

  // Sender-side notification after a successful transfer.
  virtual void on_transfer_success(const Packet& p, const PeerView& peer,
                                   ReceiveOutcome outcome, Time now);
  // Sender-side notification that `peer` rejected the packet (no room); the
  // base class adds it to the contact's skip set.
  virtual void on_transfer_failed(const Packet& p, const PeerView& peer, Time now);

  // Receiver-side entry point; implements delivery/duplicate/storage
  // mechanics and calls choose_drop_victim as required.
  virtual ReceiveOutcome receive_copy(const Packet& p, const PeerView& from,
                                      std::int64_t aux, Time now);

  virtual void contact_end(const PeerView& peer, Time now);

  // Node crash (fault injection; SimConfig::node_faults). With
  // `drop_buffers` the whole in-transit store is lost: the base class
  // drains it through the same accounting path as eviction (drop counters,
  // on_dropped hooks), so protocol metadata stays consistent with the
  // now-empty buffer. Without it, a crash is a pure connectivity loss —
  // state survives like a persisted disk. Delivery receipts and acks
  // survive either way (§3.1's destination storage is not the in-transit
  // buffer). Recovery needs no hook: the node simply rejoins with whatever
  // (stale) state it kept, and contacts refresh it.
  virtual void on_crash(bool drop_buffers, Time now);

  // Protocol-specific extra word carried with a transfer (e.g. Spray and
  // Wait's token count). Called right before the copy crosses.
  virtual std::int64_t transfer_aux(const Packet& p, const PeerView& peer);

  // Eviction policy: which buffered packet to drop to make room for
  // `incoming` (kNoPacket = refuse to drop anything, rejecting the packet).
  virtual PacketId choose_drop_victim(const Packet& incoming, Time now) = 0;

  // Observability flush, called once by Simulation::finish(): protocols that
  // keep internal probe counters (e.g. RapidRouter's utility-cache stats)
  // push them into the run's metrics registry here, so hot paths never pay
  // for reporting. Must not mutate routing state. Default: nothing to flush.
  virtual void flush_obs(obs::ObsContext& out) const;

  // --- snapshot/restore -------------------------------------------------------
  // Serializes the behaviorally significant state (buffer in packed order,
  // delivery receipts, ack table in insertion order, drop count, RNG state);
  // protocol subclasses extend with their own state. Called only between
  // events (no open contact), so the contact plan and the epoch-stamped
  // skip marks — stale by design between contacts — are not serialized and
  // restore cold. The oldest-first order is canonical: load_state drops it
  // and the next oldest_first() rebuilds it from the restored buffer.
  // save_state must not perturb behavior: restored-and-continued runs are
  // bit-identical to uninterrupted ones (the snapshot tests enforce this
  // across every protocol).
  virtual void save_state(BinWriter& out);
  // Restores into a freshly constructed router (same factory, same ctx).
  virtual void load_state(BinReader& in);

  // --- shared state helpers -------------------------------------------------

  bool has_received(PacketId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < received_.size() &&
           received_[static_cast<std::size_t>(id)] != 0;
  }
  bool knows_ack(PacketId id) const { return acked_.contains(id); }
  const AckTable& acks() const { return acked_; }
  std::size_t drops() const { return drops_; }

  // True if `peer` could use a copy of p: peer is not known (to us or to it)
  // to have the packet already.
  bool peer_wants(const PeerView& peer, const Packet& p) const;
  // True if packet `id` was marked skipped during the open contact. A mark
  // is the router's epoch at marking time; contact_begin and contact_end
  // bump the epoch, which invalidates every mark in O(1).
  bool contact_skipped(PacketId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < skip_epoch_.size() &&
           skip_epoch_[static_cast<std::size_t>(id)] == epoch_;
  }

 protected:
  // Learn that packet `id` was delivered at `when`; purges the buffered copy.
  void learn_ack(PacketId id, Time when);
  // Flood-style ack exchange with the peer; returns modeled metadata bytes
  // (8 bytes per ack entry new to the other side). Used by protocols that
  // propagate delivery notifications. Allocation-free: both directions walk
  // the packed ack tables in place.
  Bytes exchange_acks(const PeerView& peer, Time now);

  // Receiver-side storage with eviction; returns true if stored.
  bool store_with_eviction(const Packet& p, Time now);

  // Hooks for derived classes to maintain per-copy state.
  virtual void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now);
  virtual void on_dropped(const Packet& p, Time now);
  virtual void on_acked(const Packet& p, Time now);
  virtual void on_delivered_here(const Packet& p, Time now);

  // The contact plan next_transfer walks: ids for the peer itself (it is
  // their destination), then ids to replicate to it, each tier in the
  // protocol's order.
  struct ContactPlan {
    std::vector<PacketId> direct;
    std::vector<PacketId> replicate;
  };
  // Fills plan() for the open contact side. Called once per contact side,
  // by the first next_transfer, with both tiers empty. Ids may go stale as
  // the contact runs; the walk skips them. Default: nothing to send.
  virtual void build_plan(const ContactContext& contact, const PeerView& peer);
  ContactPlan& plan() { return plan_; }
  // Last replicate-tier check, made when the walk is about to offer `p`:
  // false vetoes the copy. For per-copy state that can change after the
  // plan was built but before the walk reaches the packet. Default: true.
  virtual bool may_replicate(const Packet& p) const;

  // The buffered packets in (created, id) ascending order. The first call
  // builds the order from the buffer; from then on the base class keeps it
  // in step with every store, eviction, ack purge and crash, so protocols
  // that never ask pay nothing. A removal costs O(1); the next read drops
  // its entry and merges what was stored since, in the arena's scratch.
  // Edits made straight through buffer() bypass it.
  const std::vector<std::pair<Time, PacketId>>& oldest_first();

  // A uniformly drawn buffered packet, or kNoPacket when the buffer is
  // empty (§6.3.2: "Spray and Wait and Random deletes packets randomly").
  PacketId random_victim();

  // The shared contact-processing scratch (SimContext's when provided, a
  // private one otherwise). Borrow, use, leave the capacity behind.
  ScratchArena& arena() const;

  Rng& rng() { return rng_; }

 private:
  friend class PeerView;

  void mark_skipped(PacketId id);
  // Buffer insert/erase that keep the oldest-first order, once tracked, in
  // step; false when nothing changed.
  bool buffer_insert(const Packet& p);
  bool buffer_erase(const Packet& p);
  // Evicts a buffered packet with the full drop accounting.
  void drop(const Packet& p, Time now);

  NodeId self_;
  Buffer buffer_;
  const SimContext* ctx_;
  Rng rng_;
  std::vector<std::uint8_t> received_;  // delivered to this node (we are dst)
  AckTable acked_;                      // known-delivered packets
  // Per-packet epoch skip marks; see contact_skipped. Starts at 1 so the
  // zero-initialised marks are never live.
  std::vector<std::uint32_t> skip_epoch_;
  std::uint32_t epoch_ = 1;
  bool plan_built_ = false;   // plan_ belongs to the open contact side
  bool age_tracked_ = false;  // age_order_ mirrors the buffer
  ContactPlan plan_;
  std::uint32_t direct_next_ = 0;  // walk positions in plan_'s tiers
  std::uint32_t replicate_next_ = 0;
  AgeOrder age_order_;
  std::size_t drops_ = 0;
  mutable std::unique_ptr<ScratchArena> own_arena_;  // fallback when ctx has none
};

inline NodeId PeerView::self() const { return router_->self(); }
inline bool PeerView::has_packet(PacketId id) const { return router_->buffer().contains(id); }
inline bool PeerView::has_received(PacketId id) const { return router_->has_received(id); }
inline bool PeerView::knows_ack(PacketId id) const { return router_->knows_ack(id); }
inline const AckTable& PeerView::acks() const { return router_->acks(); }
inline void PeerView::learn_ack(PacketId id, Time when) const { router_->learn_ack(id, when); }

// Factory the engine uses to build one router per node.
using RouterFactory = std::function<std::unique_ptr<Router>(NodeId, const SimContext&)>;

}  // namespace rapid
