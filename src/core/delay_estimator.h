// Algorithm "Estimate Delay" (§4.1 / Algorithm 2).
//
// A replica of packet i at node j, queued behind b_j(i) bytes of older
// packets bound for the same destination Z, needs
//     n_j(i) = max(1, ceil((b_j(i) + s_i) / B_j))
// meetings with Z to be delivered directly, where B_j is j's expected
// transfer-opportunity size. (The paper literally writes ceil(b_j(i)/B_j),
// which is zero for the head-of-queue packet; delivering i itself still
// takes one meeting, hence the max/+s_i correction. The literal form is kept
// for comparison.)
//
// The time for n meetings is Erlang(n, lambda); RAPID approximates it by an
// exponential with the same mean n/lambda so the minimum across replicas is
// again exponential (Eqs. 7-9):
//     A(i) = 1 / sum_j (1 / d_j),  d_j = E[M_jZ] * n_j(i)
//     P(a(i) < t) = 1 - exp(-t * sum_j (1 / d_j)).
//
// Contract: everything here is pure arithmetic on its arguments — the
// rate-domain quantities these functions produce are exactly the A(i) and
// P(a(i) < t) terms the utility layer (core/utility.h) substitutes into
// Eqs. 1-3. The router calls meetings_needed/direct_delivery_delay afresh
// for every d_j (one division and one multiply); only the replica-rate sum
// over d_j is memoized, in core/utility_cache.h.
#pragma once

#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace rapid {

// Meetings node j needs with the destination before i is delivered directly.
std::size_t meetings_needed(Bytes bytes_ahead, Bytes packet_size, Bytes expected_opportunity);
// The paper's literal ceil(b/B) form (can return 0); kept for the ablation.
std::size_t meetings_needed_literal(Bytes bytes_ahead, Bytes expected_opportunity);

// d_j: expected direct-delivery time of one replica.
double direct_delivery_delay(std::size_t meetings, Time expected_meeting_time);

// Aggregation across replicas. Delays of infinity contribute nothing.
// rate = sum_j 1/d_j; A = 1/rate (infinity when rate == 0).
double combined_rate(const std::vector<double>& direct_delays);
double expected_delay_from_rate(double rate);
double delivery_probability_from_rate(double rate, double within);

// --- Whole-system snapshot estimation (used by tests and DAG_DELAY
// comparisons; the distributed router computes the same quantities from its
// metadata view instead). All packets are destined to one node Z.
struct DelEstimate {
  double expected_delay = 0;
};
struct QueueSnapshot {
  // queues[n] = packet ids buffered at node n, in delivery order (front
  // first = oldest first).
  std::vector<std::vector<PacketId>> queues;
  // meeting_rate[n] = lambda of node n meeting Z.
  std::vector<double> meeting_rate;
  Bytes packet_size = 1;
  Bytes opportunity = 1;  // per-meeting transfer budget (unit-sized by default)
};
// Estimate Delay applied to the snapshot: per-packet expected delay A(i).
std::unordered_map<PacketId, double> estimate_delay_snapshot(const QueueSnapshot& snapshot);

}  // namespace rapid
