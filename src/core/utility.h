// The three routing metrics of §3.5 as utility functions, expressed in the
// rate domain (rate = sum over replicas of 1/d_j) so that adding a candidate
// replica is a rate addition and marginal utilities stay well defined even
// when no replica currently has a finite delivery path.
//
//   Metric 1 (Eq. 1): minimize average delay.   U_i = -(T(i) + A(i))
//   Metric 2 (Eq. 2): minimize missed deadlines. U_i = P(a(i) < L(i)-T(i))
//   Metric 3 (Eq. 3): minimize maximum delay.   U_i = -D(i) for the packet
//       with the largest expected delay, 0 otherwise (handled by selection
//       order in the router, which is the paper's work-conserving rule).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/types.h"

namespace rapid {

// The three §3.5 metrics. Contract: each selects which of Eqs. 1-3 the
// utility functions below evaluate — kAvgDelay is Eq. 1, kMissedDeadlines
// is Eq. 2, kMaxDelay is Eq. 3 — and every router decision (replication
// order, drop victim) flows through these functions, never through ad-hoc
// per-metric arithmetic elsewhere.
enum class RoutingMetric {
  kAvgDelay,
  kMissedDeadlines,
  kMaxDelay,
};

std::string to_string(RoutingMetric metric);
// Inverse of to_string, ignoring case and punctuation ("avg-delay",
// "AvgDelay", "max_delay"); "deadlines" also names kMissedDeadlines.
// nullopt for an unknown name.
std::optional<RoutingMetric> routing_metric_from_string(std::string_view name);

struct UtilityParams {
  // Expected delays are capped at this horizon so that "no known path"
  // (infinite A) still yields finite, comparable marginal utilities.
  double delay_cap = 24.0 * kSecondsPerHour;
};

// Expected delay A from a replica-rate sum, capped.
double capped_expected_delay(double rate, const UtilityParams& params);

// D(i) = T(i) + A(i): the packet's expected total delay.
double expected_total_delay(double age, double rate, const UtilityParams& params);

// Marginal utility (per Eq. 1 / Eq. 2) of adding a replica whose direct
// delivery delay is d_new, given the current rate sum.
//  - avg-delay and max-delay metrics: reduction in expected delay;
//  - deadline metric: increase in delivery probability within
//    `remaining_life` (0 when the deadline has passed).
double marginal_utility(RoutingMetric metric, double rate_before, double d_new,
                        double age, double remaining_life, const UtilityParams& params);

// Absolute utility U_i used for buffer ordering and drop decisions.
double packet_utility(RoutingMetric metric, double rate, double age,
                      double remaining_life, const UtilityParams& params);

}  // namespace rapid
