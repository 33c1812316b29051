#include "core/utility.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "core/delay_estimator.h"

namespace rapid {

std::string to_string(RoutingMetric metric) {
  switch (metric) {
    case RoutingMetric::kAvgDelay: return "avg-delay";
    case RoutingMetric::kMissedDeadlines: return "missed-deadlines";
    case RoutingMetric::kMaxDelay: return "max-delay";
  }
  return "?";
}

std::optional<RoutingMetric> routing_metric_from_string(std::string_view name) {
  std::string key;
  for (char ch : name)
    if (std::isalnum(static_cast<unsigned char>(ch)))
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (key == "avgdelay") return RoutingMetric::kAvgDelay;
  if (key == "maxdelay") return RoutingMetric::kMaxDelay;
  if (key == "misseddeadlines" || key == "deadlines") return RoutingMetric::kMissedDeadlines;
  return std::nullopt;
}

double capped_expected_delay(double rate, const UtilityParams& params) {
  const double a = expected_delay_from_rate(rate);
  return std::min(a, params.delay_cap);
}

double expected_total_delay(double age, double rate, const UtilityParams& params) {
  return age + capped_expected_delay(rate, params);
}

double marginal_utility(RoutingMetric metric, double rate_before, double d_new,
                        double age, double remaining_life, const UtilityParams& params) {
  (void)age;
  if (d_new == kTimeInfinity || d_new <= 0) return 0;  // replica adds no delivery path
  const double rate_after = rate_before + 1.0 / d_new;
  switch (metric) {
    case RoutingMetric::kAvgDelay:
    case RoutingMetric::kMaxDelay: {
      // Reduction of the (capped) expected delay. T(i) cancels.
      return capped_expected_delay(rate_before, params) -
             capped_expected_delay(rate_after, params);
    }
    case RoutingMetric::kMissedDeadlines: {
      if (remaining_life <= 0) return 0;  // Eq. 2: missed deadline => utility 0
      if (remaining_life == kTimeInfinity) {
        // No deadline pressure: any extra path is (equally) a certain win;
        // fall back to delay reduction so ordering stays informative.
        return capped_expected_delay(rate_before, params) -
               capped_expected_delay(rate_after, params);
      }
      // P_after - P_before computed as a survival difference so that the
      // gain stays positive even when both probabilities round to 1.
      return std::exp(-rate_before * remaining_life) -
             std::exp(-rate_after * remaining_life);
    }
  }
  throw std::logic_error("marginal_utility: unknown metric");
}

double packet_utility(RoutingMetric metric, double rate, double age,
                      double remaining_life, const UtilityParams& params) {
  switch (metric) {
    case RoutingMetric::kAvgDelay:
    case RoutingMetric::kMaxDelay:
      // U = -(T + A); for the max-delay metric Eq. 3 further masks all but
      // the max-D packet, which the router's selection order implements.
      return -expected_total_delay(age, rate, params);
    case RoutingMetric::kMissedDeadlines:
      if (remaining_life <= 0) return 0;
      return delivery_probability_from_rate(rate, remaining_life);
  }
  throw std::logic_error("packet_utility: unknown metric");
}

}  // namespace rapid
