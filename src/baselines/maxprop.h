// MaxProp [Burgess et al., Infocom 2006] — the paper's strongest baseline
// (§6.1) and its predecessor on DieselNet.
//
//   * Each node i keeps meeting likelihoods f^i_j, initialized uniform; on
//     meeting j, f^i_j is incremented and the vector re-normalized
//     (incremental averaging).
//   * Vectors are exchanged at every contact; the cost to a destination is
//     the cheapest path under edge weights (1 - f), found with Dijkstra.
//   * Transmission order: packets for the peer first; then packets with few
//     hops (below an adaptive head-start threshold) lowest-hopcount-first;
//     then the rest lowest-path-cost-first.
//   * Delivery acknowledgments are flooded and purge delivered copies.
//   * Storage pressure drops the highest-cost packet outside the head-start
//     section first.
//
// The priority order is memoized behind an explicit dirty flag (buffer
// membership, likelihood vectors, or the transfer-size average changed), so
// eviction storms within one contact re-read it instead of re-sorting the
// whole buffer per drop. Hop counts live in a flat per-packet array.
#pragma once

#include <vector>

#include "dtn/router.h"

namespace rapid {

struct MaxPropConfig {
  // Fraction of the buffer reserved for low-hopcount head start when storage
  // is finite; with unlimited buffers the average transfer size is used.
  double head_start_buffer_fraction = 0.5;
};

class MaxPropRouter : public Router {
 public:
  MaxPropRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                const MaxPropConfig& config);

  bool on_generate(const Packet& p) override;
  void observe_opportunity(Bytes capacity, NodeId peer, Time now) override;
  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override;
  std::int64_t transfer_aux(const Packet& p, const PeerView& peer) override;
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

  // Cheapest (1 - f) path cost from this node to `dst` under current vectors.
  double path_cost(NodeId dst) const;
  double meeting_likelihood(NodeId peer) const;
  int hop_count(PacketId id) const;

  // Snapshot/restore: likelihood vectors with their stamps, hop counts and
  // the transfer-size average; the cost/priority memos restore cold behind
  // their dirty flags (a fresh router starts dirty anyway).
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override;
  void on_dropped(const Packet& p, Time now) override;
  void on_acked(const Packet& p, Time now) override;
  // Packets for the peer oldest first; the rest in priority order.
  void build_plan(const ContactContext& contact, const PeerView& peer) override;

 private:
  MaxPropConfig config_;
  // f_[u] = latest known likelihood vector of node u (f_[self] is ours).
  std::vector<std::vector<double>> f_;
  std::vector<Time> f_stamp_;
  std::vector<std::int32_t> hops_;  // flat, by packet id; 0 = untracked/source
  double avg_transfer_bytes_ = 0;
  std::size_t transfers_seen_ = 0;

  mutable bool costs_dirty_ = true;
  mutable std::vector<double> cost_cache_;

  // Memoized transmission/drop priority order over the current buffer.
  mutable bool priority_dirty_ = true;
  mutable std::vector<PacketId> priority_cache_;

  void set_hops(PacketId id, int hops);
  void normalize_own();
  void recompute_costs() const;
  Bytes head_start_bytes() const;
  // Ordered buffer view: head-start section (hopcount asc) then cost asc.
  // Recomputed only when the dirty flag is set.
  const std::vector<PacketId>& priority_order() const;
};

RouterFactory make_maxprop_factory(const MaxPropConfig& config, Bytes buffer_capacity);

}  // namespace rapid
