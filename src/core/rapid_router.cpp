#include "core/rapid_router.h"

#include <algorithm>
#include <cmath>

#include "core/delay_estimator.h"
#include "obs/obs.h"
#include "util/binio.h"

namespace rapid {

namespace {

// The paper restricts the meeting-time estimate to h = 3 hops.
constexpr int kMaxHops = 3;

// Bound on the per-contact replica-estimate/record exchange (priorities 4
// and 5 of the control channel) as a fraction of the metadata budget,
// freshest records first. Keeps the control channel at the few-percent
// overhead the paper reports (Table 3, Fig 9) instead of letting the relay
// grow with the total packet population.
constexpr double kRelayBudgetFraction = 0.05;

}  // namespace

RapidRouter::RapidRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                         const RapidConfig& config, std::shared_ptr<GlobalChannel> global)
    : Router(self, buffer_capacity, ctx),
      config_(config),
      matrix_(self, ctx->num_nodes, kMaxHops),
      global_(std::move(global)),
      link_slot_(static_cast<std::size_t>(ctx->num_nodes), -1),
      cache_(ctx->num_nodes) {
  if (config_.control == ControlChannelMode::kGlobalOracle && global_ == nullptr)
    throw std::invalid_argument("RapidRouter: global-oracle mode needs a GlobalChannel");
  // The workload pool is fully generated before the simulation starts, so
  // the per-packet slabs can be sized once instead of growing in churn.
  if (ctx->pool != nullptr) meta_.reserve_packets(ctx->pool->size());
}

const RapidRouter::PeerLink* RapidRouter::find_link(NodeId peer) const {
  const auto idx = static_cast<std::size_t>(peer);
  if (idx >= link_slot_.size() || link_slot_[idx] < 0) return nullptr;
  return &links_[static_cast<std::size_t>(link_slot_[idx])];
}

RapidRouter::PeerLink& RapidRouter::link_for(NodeId peer) {
  std::int32_t& slot = link_slot_.at(static_cast<std::size_t>(peer));
  if (slot < 0) {
    slot = static_cast<std::int32_t>(links_.size());
    links_.emplace_back();
  }
  return links_[static_cast<std::size_t>(slot)];
}

// --- queue maintenance -------------------------------------------------------

void RapidRouter::queue_insert(const Packet& p) {
  cache_.queue_insert(p.dst, UtilityCache::QueueEntry{p.created, p.id, p.size});
}

void RapidRouter::queue_erase(const Packet& p) {
  cache_.queue_erase(p.dst, UtilityCache::QueueEntry{p.created, p.id, p.size});
}

// --- inference ----------------------------------------------------------------

double RapidRouter::effective_meeting_time(NodeId node) const {
  if (node == self()) return 0;
  const Time e = matrix_.expected_meeting_time(self(), node);
  if (e == kTimeInfinity) return kTimeInfinity;  // unreachable within h hops
  return std::max(e, 1.0);
}

Bytes RapidRouter::expected_opportunity(NodeId peer) const {
  if (const PeerLink* link = find_link(peer); link != nullptr && !link->opportunity.empty())
    return std::max<Bytes>(1, static_cast<Bytes>(link->opportunity.value()));
  if (!avg_opportunity_.empty())
    return std::max<Bytes>(1, static_cast<Bytes>(avg_opportunity_.value()));
  return config_.prior_opportunity_bytes;
}

RapidRouter::DelayInputs RapidRouter::delay_inputs(const Packet& p) const {
  // The three inputs of Algorithm 2, read back cheaply: queue prefix in
  // O(log n) from the flat storage, opportunity average and memoized h-hop
  // meeting time in O(1).
  return DelayInputs{
      cache_.queue_bytes_before(p.dst, UtilityCache::QueueEntry{p.created, p.id, p.size}),
      expected_opportunity(p.dst), effective_meeting_time(p.dst)};
}

double RapidRouter::direct_delay_at(const Packet& p, const DelayInputs& inputs) {
  return direct_delivery_delay(meetings_needed(inputs.bytes_ahead, p.size, inputs.opportunity),
                               inputs.meeting_time);
}

double RapidRouter::direct_delay(const Packet& p) const {
  return direct_delay_at(p, delay_inputs(p));
}

double RapidRouter::replica_rate(const Packet& p) const {
  if (config_.control == ControlChannelMode::kGlobalOracle) {
    // True global state: depends on other nodes' queues, which no key of
    // this node's memo can see — always evaluated fresh.
    return cache_.uncached_rate([&] {
      double rate = 0;
      for (NodeId holder : global_->holders(p.id)) {
        const Router* r = ctx().oracle->at(holder);
        const auto* rr = dynamic_cast<const RapidRouter*>(r);
        if (rr == nullptr) continue;
        const double d = rr->direct_delay(p);
        if (d > 0 && d != kTimeInfinity) rate += 1.0 / d;
      }
      return rate;
    });
  }

  // The fresh self term keys the memo; a packet this node does not hold has
  // none and gathers no delay inputs. The sum adds the self term first, then
  // the replicas in record order.
  const bool in_buffer = buffer().contains(p.id);
  const double self_delay = in_buffer ? direct_delay(p) : 0;
  return cache_.rate(
      p.id, UtilityCache::RateInputs{self_delay, meta_.generation(p.id), in_buffer}, [&] {
        double rate = 0;
        if (self_delay > 0 && self_delay != kTimeInfinity) rate += 1.0 / self_delay;
        for (const ReplicaEstimate& est : meta_.replicas(p.id)) {
          if (est.holder == self()) continue;  // always use the fresh self term
          if (est.direct_delay > 0 && est.direct_delay != kTimeInfinity)
            rate += 1.0 / est.direct_delay;
        }
        return rate;
      });
}

double RapidRouter::expected_total_delay_of(const Packet& p, Time now) const {
  return expected_total_delay(p.age(now), replica_rate(p), config_.utility);
}

double RapidRouter::utility_of(const Packet& p, Time now) const {
#if RAPID_OBS_ENABLED
  // Utility-recompute trace events: the cache decides hit-vs-recompute
  // internally, so a traced run watches its rate-recompute count across the
  // evaluation and emits one event (value 1) when the sum was recomputed.
  // One counter read when tracing; nothing otherwise.
  obs::ObsContext* obs_ctx = obs::current();
  const bool traced = obs_ctx != nullptr && obs_ctx->trace.enabled();
  const std::uint64_t rate_before = traced ? cache_.stats().rate_recomputes : 0;
#endif
  const double utility =
      packet_utility(config_.metric, replica_rate(p), p.age(now),
                     p.deadline == kTimeInfinity ? kTimeInfinity : p.deadline - now,
                     config_.utility);
#if RAPID_OBS_ENABLED
  if (traced && cache_.stats().rate_recomputes != rate_before)
    obs_ctx->trace.emit({now, obs::TraceEventKind::kUtilityRecompute, self(), kNoNode, p.id, 1});
#endif
  return utility;
}

double RapidRouter::marginal_for(const Packet& p, RapidRouter* rapid_peer,
                                 const PeerView& peer, Time now) const {
  double d_new = kTimeInfinity;
  if (rapid_peer != nullptr) {
    d_new = rapid_peer->direct_delay(p);
  } else {
    // Non-RAPID peer (mixed-protocol runs): fall back to our own matrix view
    // of the peer's meeting time and an empty-queue assumption.
    const Time e = matrix_.expected_meeting_time(peer.self(), p.dst);
    const double eff = (e == kTimeInfinity) ? kTimeInfinity : std::max(e, 1.0);
    d_new = direct_delivery_delay(meetings_needed(0, p.size, expected_opportunity(p.dst)), eff);
  }
  const double remaining =
      p.deadline == kTimeInfinity ? kTimeInfinity : p.deadline - now;
  return marginal_utility(config_.metric, replica_rate(p), d_new, p.age(now), remaining,
                          config_.utility);
}

// --- lifecycle hooks -----------------------------------------------------------

bool RapidRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  queue_insert(p);
  meta_.update_replica(p.id, ReplicaEstimate{self(), direct_delay(p), p.created});
  if (global_ != nullptr) global_->add_holder(p.id, self());
  return true;
}

void RapidRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t /*aux*/,
                            Time now) {
  queue_insert(p);
  meta_.update_replica(p.id, ReplicaEstimate{self(), direct_delay(p), now});
  if (global_ != nullptr) global_->add_holder(p.id, self());
}

void RapidRouter::on_dropped(const Packet& p, Time now) {
  queue_erase(p);
  meta_.remove_replica(p.id, self(), now);
  // Evict the memo too: dropped (and deadline-expired) packets may never be
  // acked, and without this the entry table would grow with every packet the
  // router ever evaluated. A later re-replication simply recomputes.
  cache_.forget(p.id);
  if (global_ != nullptr) global_->remove_holder(p.id, self());
}

void RapidRouter::on_acked(const Packet& p, Time /*now*/) {
  queue_erase(p);
  meta_.forget_packet(p.id);
  cache_.forget(p.id);  // acknowledged: never asked about again
  if (global_ != nullptr) global_->remove_holder(p.id, self());
}

void RapidRouter::on_delivered_here(const Packet& p, Time now) {
  if (config_.control != ControlChannelMode::kGlobalOracle) return;
  // Instant global acknowledgment: every node purges its copy immediately.
  global_->mark_delivered(p.id);
  const RouterOracle& oracle = *ctx().oracle;
  for (NodeId n = 0; n < oracle.size(); ++n) {
    Router* r = oracle.at(n);
    if (r == nullptr || r == this) continue;
    if (auto* rr = dynamic_cast<RapidRouter*>(r)) rr->learn_ack(p.id, now);
  }
}

// --- contact protocol -----------------------------------------------------------

void RapidRouter::observe_opportunity(Bytes capacity, NodeId peer, Time now) {
  (void)now;
  // A contact that carried no bytes is not a transfer-opportunity sample;
  // folding zeros into B would wildly inflate the meeting counts of Alg. 2.
  if (capacity <= 0) return;
  avg_opportunity_.add(static_cast<double>(capacity));
  link_for(peer).opportunity.add(static_cast<double>(capacity));
}

void RapidRouter::broadcast_own_row(Time /*now*/) {
  const RouterOracle& oracle = *ctx().oracle;
  const MeetingMatrix::RowPtr& own = matrix_.share_row(self());
  for (NodeId n = 0; n < oracle.size(); ++n) {
    Router* r = oracle.at(n);
    if (r == nullptr || r == this) continue;
    if (auto* rr = dynamic_cast<RapidRouter*>(r))
      rr->matrix_.merge_row(self(), own);  // zero-copy: adopt the shared version
  }
}

Bytes RapidRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);  // plan rebuilt lazily
  matrix_.observe_meeting(peer.self(), now);

  if (config_.control == ControlChannelMode::kGlobalOracle) {
    broadcast_own_row(now);
    return 0;  // the global channel is out of band
  }
  auto* rapid_peer = peer.as<RapidRouter>();
  if (rapid_peer == nullptr) return 0;
  return exchange_metadata(*rapid_peer, now, meta_budget);
}

Bytes RapidRouter::exchange_metadata(RapidRouter& peer, Time now, Bytes budget) {
  Bytes used = 0;
  const auto fits = [&](Bytes cost) { return used + cost <= budget; };
  const auto finish = [&]() -> Bytes {
    link_for(peer.self()).last_sync = now;
    return used;
  };

  // Priority 1: scalar — average size of past transfer opportunities.
  if (fits(kScalarBytes)) {
    used += kScalarBytes;
    meta_bytes_.scalar += kScalarBytes;
  }

  // Priority 2: delivery acknowledgments (delta: only those the peer lacks).
  // The packed ack table is walked in place; learning into the peer never
  // perturbs our own entries.
  for (const AckTable::Entry& e : acks().entries()) {
    if (peer.knows_ack(e.id)) continue;
    if (!fits(kAckEntryBytes)) break;
    used += kAckEntryBytes;
    meta_bytes_.acks += kAckEntryBytes;
    peer.learn_ack(e.id, e.when);
  }

  // Priority 3: meeting-time rows changed since the last exchange with this
  // peer (own observations and relayed rows alike). The wire size reads the
  // matrix's incrementally maintained finite-entry count instead of
  // re-scanning the row.
  const PeerLink* link = find_link(peer.self());
  const Time since = link != nullptr ? link->last_sync : -kTimeInfinity;
  for (NodeId u = 0; u < matrix_.num_nodes(); ++u) {
    if (u == peer.self()) continue;
    const Time stamp = matrix_.row_stamp(u);
    if (stamp <= since) continue;
    const Bytes cost = kMeetingRowHeaderBytes +
                       kMeetingRowEntryBytes * static_cast<Bytes>(matrix_.finite_count(u));
    if (!fits(cost)) break;
    used += cost;
    meta_bytes_.rows += cost;
    // Same-process gossip adopts the shared immutable row version: one
    // 8-byte handle copy, no n-cell copy.
    peer.matrix_.merge_row(u, matrix_.share_row(u));
  }

  // Priorities 4 and 5: fresh estimates for our own buffered packets and
  // relayed third-party records changed since the last exchange, freshest
  // first, bounded by the relay budget (kRelayBudgetFraction). rapid-local
  // mode only ever describes this node's own buffer.
  const Bytes relay_budget =
      used + static_cast<Bytes>(kRelayBudgetFraction * static_cast<double>(budget));
  const auto relay_fits = [&](Bytes cost) {
    return used + cost <= std::min(relay_budget, budget);
  };

  // Own-buffer estimates first ("for each of its own packets, the updated
  // delivery delay estimate based on current buffer state"). The flat queue
  // table iterates in ascending destination order — deterministic, unlike
  // the hash map it replaced.
  bool exhausted = false;
  cache_.for_each_queue([&](NodeId dst, const std::vector<UtilityCache::QueueEntry>& q) {
    // One SoA-style pass per destination queue: the opportunity and h-hop
    // meeting-time terms are hoisted (they cannot move while the queue is
    // walked) and the Algorithm-2 byte prefix accumulates along the
    // age-sorted entries — the same values the per-packet O(log n) reads
    // would produce, derived once per queue instead of once per packet.
    const Bytes opportunity = expected_opportunity(dst);
    const Time meeting = effective_meeting_time(dst);
    Bytes prefix = 0;
    for (const UtilityCache::QueueEntry& entry : q) {
      const Packet& p = ctx().packet(entry.id);
      const Bytes cost = kPacketRecordHeaderBytes + kReplicaEntryBytes;
      if (!relay_fits(cost)) {
        exhausted = true;
        return false;  // budget spent: stop walking the remaining queues
      }
      used += cost;
      meta_bytes_.own += cost;
      peer.meta_.update_replica(
          p.id, ReplicaEstimate{self(), direct_delay_at(p, {prefix, opportunity, meeting}), now});
      prefix += entry.size;
    }
    return true;
  });
  if (exhausted) return finish();

  // Then relayed records ("information about other packets if modified
  // since last exchange with the peer"), freshest change first. The walk
  // fills the simulation-owned scratch arena, so steady-state contacts
  // allocate nothing.
  if (config_.control == ControlChannelMode::kInBand) {
    auto& changed = arena().changed;
    meta_.changed_since(since, changed);
    std::stable_sort(changed.begin(), changed.end(), [](const auto& a, const auto& b) {
      return a.second->last_changed > b.second->last_changed;
    });
    for (const auto& [id, record] : changed) {
      if (peer.knows_ack(id)) continue;
      if (buffer().contains(id)) continue;  // covered above
      const Bytes cost = MetadataStore::record_bytes(*record);
      if (!relay_fits(cost)) return finish();
      used += cost;
      meta_bytes_.relayed += cost;
      for (const ReplicaEstimate& est : record->replicas) {
        if (est.holder == peer.self()) continue;
        peer.meta_.update_replica(id, est);
      }
    }
  }

  return finish();
}

void RapidRouter::build_plan(const ContactContext& contact, const PeerView& peer) {
  auto* rapid_peer = peer.as<RapidRouter>();
  const Time now = contact.now;

  // Step 2 — direct delivery, "in decreasing order of their utility":
  // oldest-first for the delay metrics (the order the maintained
  // per-destination queue already holds), most-urgent-viable-first for the
  // deadline metric.
  std::vector<PacketId>& direct = plan().direct;
  for (const UtilityCache::QueueEntry& e : cache_.queue(peer.self())) direct.push_back(e.id);
  if (config_.metric == RoutingMetric::kMissedDeadlines) {
    std::stable_sort(direct.begin(), direct.end(),
                     [&](PacketId a, PacketId b) {
                       const Packet& pa = ctx().packet(a);
                       const Packet& pb = ctx().packet(b);
                       const bool va = pa.deadline > now;
                       const bool vb = pb.deadline > now;
                       if (va != vb) return va;  // viable packets first
                       if (va) return pa.deadline < pb.deadline;  // most urgent first
                       return pa.created < pb.created;
                     });
  }

  // Step 3 — replication candidates scored once per contact. Replicating a
  // packet only changes that packet's own utility, so no transfer reorders
  // the others and a single descending order is work-conserving. Candidates
  // whose marginal utility is zero (no known path to the destination yet,
  // Eq. 1's infinity - infinity case) form a second tier ordered by fewest
  // believed replicas, so spare bandwidth is still used rather than idled.
  // Each score's replica-rate sum comes from the memo, so only packets
  // whose sum inputs changed since the last evaluation re-sum their
  // replicas.
  scored_.clear();
  std::vector<Candidate>& fallback = fallback_scratch_;
  fallback.clear();
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const Packet& p = ctx().packet(id);
    if (p.dst == peer.self()) return;  // handled by direct delivery
    if (knows_ack(id)) return;
    if (!peer_wants(peer, p)) return;
    if (config_.metric == RoutingMetric::kMissedDeadlines && p.deadline <= now)
      return;  // Eq. 2: a missed deadline contributes nothing
    const double marginal = marginal_for(p, rapid_peer, peer, now);
    Candidate c;
    c.id = id;
    if (marginal <= 0) {
      const double replicas = 1.0 + static_cast<double>(meta_.replicas(id).size());
      c.score = 1.0 / replicas - p.created * 1e-12;  // fewest replicas, then oldest
      fallback.push_back(c);
      return;
    }
    if (config_.metric == RoutingMetric::kMaxDelay) {
      // Eq. 3: only the packet with the maximum expected delay has utility;
      // evaluating in decreasing D(i) is the paper's work-conserving rule.
      c.score = expected_total_delay_of(p, now);
    } else {
      c.score = marginal / static_cast<double>(p.size);
    }
    scored_.push_back(c);
  });
  const auto by_score_desc = [](const Candidate& a, const Candidate& b) {
    return a.score > b.score;
  };
  std::stable_sort(scored_.begin(), scored_.end(), by_score_desc);
  std::stable_sort(fallback.begin(), fallback.end(), by_score_desc);
  std::vector<PacketId>& replicate = plan().replicate;
  for (const Candidate& c : scored_) replicate.push_back(c.id);
  for (const Candidate& c : fallback) replicate.push_back(c.id);
}

void RapidRouter::on_transfer_success(const Packet& p, const PeerView& peer,
                                      ReceiveOutcome outcome, Time now) {
  if (outcome == ReceiveOutcome::kDelivered || outcome == ReceiveOutcome::kDuplicateDelivery) {
    if (config_.control != ControlChannelMode::kGlobalOracle) {
      // We are talking to the destination: learn the ack right away.
      learn_ack(p.id, now);
    }
    return;
  }
  if (outcome != ReceiveOutcome::kStored) return;
  auto* rapid_peer = peer.as<RapidRouter>();
  if (rapid_peer != nullptr && config_.control != ControlChannelMode::kGlobalOracle) {
    // Track the new replica and hand the packet's known replica list to the
    // receiver (it travels with the packet; full in-band mode only). Refresh
    // our own estimate first so the receiver gets current buffer state.
    meta_.update_replica(p.id, ReplicaEstimate{self(), direct_delay(p), now});
    meta_.update_replica(p.id,
                         ReplicaEstimate{peer.self(), rapid_peer->direct_delay(p), now});
    if (config_.control == ControlChannelMode::kInBand) {
      for (const ReplicaEstimate& est : meta_.replicas(p.id)) {
        if (est.holder == peer.self()) continue;
        rapid_peer->meta_.update_replica(p.id, est);
      }
    }
  }
}

void RapidRouter::flush_obs(obs::ObsContext& out) const {
  const UtilityCacheStats& s = cache_.stats();
  out.metrics.add(obs::Counter::kUtilityRateHits, s.rate_hits);
  out.metrics.add(obs::Counter::kUtilityRateRecomputes, s.rate_recomputes);
  out.metrics.add(obs::Counter::kUtilityForgets, s.forgets);
  out.metrics.gauge_max(obs::Gauge::kUtilityTrackedPackets, cache_.tracked_packets());
  out.metrics.add(obs::Counter::kEvictScanned, evict_scanned_);
  const MeetingMatrix::Stats& m = matrix_.stats();
  out.metrics.add(obs::Counter::kMatrixHopRecomputes, m.hop_recomputes);
  out.metrics.add(obs::Counter::kMatrixHopEdges, m.hop_edges);
  out.metrics.add(obs::Counter::kMatrixRowsAccepted, m.rows_accepted);
  out.metrics.add(obs::Counter::kMetaBytesScalar, meta_bytes_.scalar);
  out.metrics.add(obs::Counter::kMetaBytesAcks, meta_bytes_.acks);
  out.metrics.add(obs::Counter::kMetaBytesRows, meta_bytes_.rows);
  out.metrics.add(obs::Counter::kMetaBytesOwn, meta_bytes_.own);
  out.metrics.add(obs::Counter::kMetaBytesRelayed, meta_bytes_.relayed);
}

PacketId RapidRouter::choose_drop_victim(const Packet& incoming, Time now) {
  // Keep-priority per metric: drop the packet that contributes least to the
  // routing metric (§3.4: "packets with the lowest utility are deleted
  // first"); a source never drops its own unacknowledged packet.
  const auto keep_priority = [&](const Packet& p) -> double {
    // For the incoming (not yet stored) packet, include the self term it
    // would gain by being stored here, so the comparison is like for like.
    ++evict_scanned_;
    double rate = replica_rate(p);
    if (!buffer().contains(p.id)) {
      const double d = direct_delay(p);
      if (d > 0 && d != kTimeInfinity) rate += 1.0 / d;
    }
    switch (config_.metric) {
      case RoutingMetric::kAvgDelay:
        return -expected_total_delay(p.age(now), rate, config_.utility);
      case RoutingMetric::kMissedDeadlines: {
        if (p.deadline <= now) return -1e18 + p.created;  // expired: drop first, oldest first
        return packet_utility(config_.metric, rate, p.age(now), p.deadline - now,
                              config_.utility);
      }
      case RoutingMetric::kMaxDelay:
        // Minimizing the max delay wants old packets kept; drop low-D first.
        return expected_total_delay(p.age(now), rate, config_.utility);
    }
    return 0;
  };

  PacketId victim = kNoPacket;
  double victim_priority = 0;
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const Packet& p = ctx().packet(id);
    if (p.src == self()) return;  // own un-acked packets are protected
    const double priority = keep_priority(p);
    if (victim == kNoPacket || priority < victim_priority) {
      victim = id;
      victim_priority = priority;
    }
  });
  if (victim == kNoPacket) return kNoPacket;
  // If the incoming packet would itself be the least useful, reject it.
  if (incoming.src != self() && keep_priority(incoming) <= victim_priority) return kNoPacket;
  return victim;
}

void RapidRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("RAPD");
  matrix_.save(out);
  meta_.save(out);
  // Per-peer links in the dense layout: defaults for peers never met.
  const auto n = static_cast<NodeId>(link_slot_.size());
  for (NodeId u = 0; u < n; ++u) {
    const PeerLink* link = find_link(u);
    out.f64(link != nullptr ? link->last_sync : -kTimeInfinity);
  }
  out.f64(avg_opportunity_.value());
  out.u64(avg_opportunity_.count());
  const MovingAverage none;
  for (NodeId u = 0; u < n; ++u) {
    const PeerLink* link = find_link(u);
    const MovingAverage& m = link != nullptr ? link->opportunity : none;
    out.f64(m.value());
    out.u64(m.count());
  }
  out.u8(global_ != nullptr ? 1 : 0);
  if (global_ != nullptr) {
    // One channel is shared by every RAPID router; the first saver writes
    // the body, the rest write only the intern id.
    std::uint64_t id = 0;
    if (out.intern(global_.get(), id)) global_->save(out);
  }
}

void RapidRouter::load_state(BinReader& in) {
  Router::load_state(in);
  in.expect_tag("RAPD");
  matrix_.load(in);
  meta_.load(in);
  links_.clear();
  std::fill(link_slot_.begin(), link_slot_.end(), -1);
  const auto n = static_cast<NodeId>(link_slot_.size());
  for (NodeId u = 0; u < n; ++u) {
    const Time t = in.f64();
    if (t != -kTimeInfinity) link_for(u).last_sync = t;
  }
  {
    const double value = in.f64();
    avg_opportunity_.restore(value, in.u64());
  }
  for (NodeId u = 0; u < n; ++u) {
    const double value = in.f64();
    const std::uint64_t count = in.u64();
    if (count != 0 || value != 0.0) link_for(u).opportunity.restore(value, count);
  }
  const bool had_global = in.u8() != 0;
  if (had_global != (global_ != nullptr))
    BinReader::fail("control-channel mode differs from the snapshot's");
  if (global_ != nullptr) {
    // The factory already wired every restored router to one shared channel;
    // the first loader fills it, the rest just consume the intern id.
    const std::uint64_t id = in.intern_id();
    if (in.interned(id) == nullptr) {
      global_->load(in);
      in.register_interned(id, global_);
    }
  }
  // Rebuild the per-destination queues from the restored buffer. Insertion
  // is by (created, id) age rank, so the rebuilt queues match the originals
  // regardless of arrival order; memoized estimates refill on demand.
  buffer().for_each([&](PacketId id, Bytes /*size*/) { queue_insert(ctx().packet(id)); });
}

RouterFactory make_rapid_factory(const RapidConfig& config, Bytes buffer_capacity,
                                 std::shared_ptr<GlobalChannel> global) {
  return [config, buffer_capacity, global](NodeId node, const SimContext& ctx) {
    std::shared_ptr<GlobalChannel> channel = global;
    if (config.control == ControlChannelMode::kGlobalOracle && channel == nullptr)
      throw std::invalid_argument("make_rapid_factory: global mode without channel");
    return std::make_unique<RapidRouter>(node, buffer_capacity, &ctx, config, channel);
  };
}

}  // namespace rapid
