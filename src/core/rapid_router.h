// The RAPID router: Protocol rapid(X, Y) of §3.4 with the inference
// algorithm of §4 and the control channel of §4.2.
//
// At a transfer opportunity the router:
//   1. exchanges metadata (acks, meeting-time rows, replica lists with
//      direct-delivery estimates, average opportunity sizes) under the
//      metadata budget;
//   2. delivers packets destined to the peer, highest utility first;
//   3. replicates packets in decreasing marginal utility per byte
//      delta(U_i) / s_i, skipping packets the peer already holds;
//   4. stops when the opportunity is exhausted.
//
// Expected delays come from Estimate Delay (core/delay_estimator.h) applied
// to the router's (possibly stale) metadata view; meeting times come from
// the <= 3-hop meeting matrix (core/meeting_matrix.h).
//
// Algorithm 2's direct-delivery estimate d_j is plain arithmetic on three
// inputs read back cheaply (queue prefix, opportunity average, memoized
// h-hop meeting time), so it is computed on every call. The replica-rate sum
// feeding Eqs. 1-3 is memoized per packet in core/utility_cache.h, keyed by
// the self delay, the packet's metadata generation and buffer membership,
// so a contact re-sums only the packets whose inputs actually moved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/control_channel.h"
#include "core/meeting_matrix.h"
#include "core/metadata.h"
#include "core/utility.h"
#include "core/utility_cache.h"
#include "dtn/router.h"
#include "stats/moments.h"

namespace rapid {

struct RapidConfig {
  RoutingMetric metric = RoutingMetric::kAvgDelay;
  ControlChannelMode control = ControlChannelMode::kInBand;
  UtilityParams utility;
  // Reserved scale for "no information yet": destinations unreachable within
  // h hops contribute zero marginal utility (§4.1.2 sets their expected
  // meeting time to infinity); such packets are replicated last, with spare
  // bandwidth only (work conservation). This knob only anchors reporting of
  // capped delays in diagnostics.
  double prior_meeting_time = 6.0 * kSecondsPerHour;
  // Prior for the expected transfer-opportunity size before any is observed.
  Bytes prior_opportunity_bytes = 100_KB;
  // Read by nothing. The replica-rate memo is always on, and its reference
  // check lives in tests/runner_test.cpp; the field stays only because the
  // benchmark driver (benchmark/timed.h) assigns it.
  bool use_utility_cache = true;
};

// Protocol rapid(X, Y): a Router that treats the transfer opportunity as a
// resource-allocation problem. It orders candidate replications by marginal
// utility per byte delta(U_i)/s_i, where U_i is the configured metric's
// utility — Eq. 1 (average delay, U_i = -(T(i) + A(i))), Eq. 2 (missed
// deadlines, U_i = P(a(i) < L(i) - T(i))) or Eq. 3 (maximum delay) — and
// evaluates those utilities from its local, possibly stale, metadata view.
// Contract: the router owns nothing outside its own state (buffers, queues,
// matrix, metadata, cache) and touches peers only through the PeerView it is
// handed during a contact; all inference methods are const and
// side-effect-free except for memo fills in the mutable utility cache.
class RapidRouter : public Router {
 public:
  RapidRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
              const RapidConfig& config, std::shared_ptr<GlobalChannel> global = nullptr);

  const RapidConfig& config() const { return config_; }
  const MeetingMatrix& matrix() const { return matrix_; }
  const MetadataStore& metadata() const { return meta_; }
  // The incremental utility engine (probe counters, flat queues). Exposed
  // read-only for tests and benches.
  const UtilityCache& utility_cache() const { return cache_; }

  // --- Router interface -----------------------------------------------------
  bool on_generate(const Packet& p) override;
  void observe_opportunity(Bytes capacity, NodeId peer, Time now) override;
  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override;
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;
  // Pushes the utility-cache probe counters (rate hits, recomputes,
  // forgets, tracked-packet high-water mark), the packets eviction scored,
  // and the meeting matrix's work probes into the run's registry.
  void flush_obs(obs::ObsContext& out) const override;

  // Snapshot/restore: meeting matrix (with shared row versions interned),
  // metadata ledger, opportunity averages, one record per peer met (peers
  // ascending; load_state throws std::runtime_error on any other order) and
  // — in global-oracle mode — the shared channel, serialized once by
  // whichever router saves first. The utility cache restores cold and
  // refills from identical inputs (a memoized sum is bit-identical to a
  // fresh one by contract).
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

  // --- Inference (exposed for tests and for peers during a contact) ---------
  // Algorithm 2's d_j at this node: the direct-delivery delay for the queue
  // position `p` holds here, or would take if it were replicated here now.
  // Insertion by age keeps the delivered-oldest-first order, so the two are
  // the same computation.
  double direct_delay(const Packet& p) const;
  // Believed rate sum over replicas (self fresh + metadata view / oracle).
  double replica_rate(const Packet& p) const;
  // D(i) = T(i) + A(i) under the current view.
  double expected_total_delay_of(const Packet& p, Time now) const;
  // Expected inter-meeting time with `node` (<= h hops, prior-substituted).
  double effective_meeting_time(NodeId node) const;
  Bytes expected_opportunity(NodeId peer) const;
  // The configured metric's utility of `p` under the current view — the
  // mid-stream query surface of the service engine (src/service).
  double utility_now(const Packet& p, Time now) const { return utility_of(p, now); }

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override;
  void on_dropped(const Packet& p, Time now) override;
  void on_acked(const Packet& p, Time now) override;
  void on_delivered_here(const Packet& p, Time now) override;
  // Steps 2 and 3 of the contact, scored once per contact side: the
  // candidate set is stable within a contact, and replicating a packet
  // changes only that packet's utility, so one order stays work-conserving.
  void build_plan(const ContactContext& contact, const PeerView& peer) override;

 private:
  struct Candidate {
    PacketId id = kNoPacket;
    double score = 0;  // delta(U)/s, or D(i) for the max-delay metric
  };

  RapidConfig config_;
  MeetingMatrix matrix_;
  MetadataStore meta_;
  std::shared_ptr<GlobalChannel> global_;
  MovingAverage avg_opportunity_;  // all peers
  // What this router keeps about each peer it has met: the last metadata
  // sync and the running transfer-opportunity size. Packed (in an order
  // nothing reads) and reached through a direct slot index, because
  // expected_opportunity runs on every utility evaluation.
  struct PeerLink {
    Time last_sync = -kTimeInfinity;  // -inf = never synced
    MovingAverage opportunity;
  };
  std::vector<std::int32_t> link_slot_;  // peer -> links_ index, -1 = none
  std::vector<PeerLink> links_;
  const PeerLink* find_link(NodeId peer) const;
  PeerLink& link_for(NodeId peer);  // find-or-insert

  // Metadata bytes this router sent, by exchange_metadata priority; flushed
  // by flush_obs as meta.bytes.{scalar,acks,rows,own,relayed}. Their sum
  // over all routers is the run's in-band metadata volume.
  struct MetaBytes {
    std::uint64_t scalar = 0;   // average transfer-opportunity size
    std::uint64_t acks = 0;     // delivery acknowledgments
    std::uint64_t rows = 0;     // meeting-time rows
    std::uint64_t own = 0;      // estimates for this node's buffered packets
    std::uint64_t relayed = 0;  // third-party replica records
  };
  MetaBytes meta_bytes_;

  // Incremental utility engine: owns the flat per-destination queues
  // ((created, id, size) ascending by age rank — front is oldest, i.e.
  // delivered first, §4.1) and the per-packet replica-rate memo. Mutable
  // because memo fills happen inside const inference queries.
  mutable UtilityCache cache_;

  // Packets choose_drop_victim scored (the incoming one included); flushed
  // as evict.scanned.
  std::uint64_t evict_scanned_ = 0;

  // build_plan's scored candidates, reused across contacts.
  std::vector<Candidate> scored_;
  std::vector<Candidate> fallback_scratch_;

  void queue_insert(const Packet& p);
  void queue_erase(const Packet& p);

  // Algorithm 2's inputs for one packet at this node: the bytes queued ahead
  // b_j(i), the expected opportunity size B_j and the expected meeting time
  // E[M]. A plain argument bundle: the bulk own-buffer pass of
  // exchange_metadata hoists the per-destination terms and accumulates the
  // byte prefix while walking a queue instead of re-deriving all three per
  // packet.
  struct DelayInputs {
    Bytes bytes_ahead = 0;
    Bytes opportunity = 0;
    Time meeting_time = 0;
  };
  DelayInputs delay_inputs(const Packet& p) const;
  static double direct_delay_at(const Packet& p, const DelayInputs& inputs);

  Bytes exchange_metadata(RapidRouter& peer, Time now, Bytes budget);
  double marginal_for(const Packet& p, RapidRouter* rapid_peer, const PeerView& peer,
                      Time now) const;
  double utility_of(const Packet& p, Time now) const;
  void broadcast_own_row(Time now);
};

// Convenience factory for the experiment harness.
RouterFactory make_rapid_factory(const RapidConfig& config, Bytes buffer_capacity,
                                 std::shared_ptr<GlobalChannel> global = nullptr);

}  // namespace rapid
