// Parameterized sweep over (protocol × metric × storage class): every
// combination must run a full simulated day and satisfy the cross-cutting
// invariants (byte conservation, delivery consistency, determinism).
#include <gtest/gtest.h>

#include <tuple>

#include "dtn/workload.h"
#include "mobility/powerlaw_model.h"
#include "sim/engine.h"
#include "sim/protocols.h"
#include "util/rng.h"

namespace rapid {
namespace {

struct MatrixCase {
  ProtocolKind protocol;
  RoutingMetric metric;
  Bytes buffer;
};

class ProtocolMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  static SimResult run_case(const MatrixCase& c, std::uint64_t seed) {
    PowerlawMobilityConfig mobility;
    mobility.num_nodes = 10;
    mobility.duration = 240;
    mobility.mean_opportunity = 16_KB;
    Rng rng(seed);
    const PowerlawSchedule ps = generate_powerlaw_schedule(mobility, rng);

    WorkloadConfig wl;
    wl.packets_per_period_per_pair = 1.0;
    wl.load_period = 50;
    wl.duration = mobility.duration;
    wl.deadline = 30;
    Rng wrng = rng.split("wl");
    const PacketPool workload = generate_workload(wl, mobility.num_nodes, wrng);

    ProtocolParams params;
    params.metric = c.metric;
    params.rapid_prior_meeting_time = mobility.duration;
    params.rapid_prior_opportunity = mobility.mean_opportunity;
    params.prophet_aging_unit = 10;
    return run_simulation(ps.schedule, workload,
                          make_protocol_factory(c.protocol, params, c.buffer), SimConfig{});
  }
};

TEST_P(ProtocolMatrix, RunsAndSatisfiesInvariants) {
  const MatrixCase c = GetParam();
  const SimResult r = run_case(c, 7);
  EXPECT_GT(r.total_packets, 0u);
  EXPECT_LE(r.delivered, r.total_packets);
  EXPECT_LE(r.data_bytes + r.metadata_bytes, r.capacity_bytes);
  EXPECT_GE(r.deadline_rate, 0.0);
  EXPECT_LE(r.deadline_rate, r.delivery_rate + 1e-12);
  if (r.delivered > 0) {
    EXPECT_GT(r.avg_delay, 0.0);
    EXPECT_GE(r.max_delay, r.avg_delay);
  }
  // Storage classes: constrained buffers may drop; unlimited must not.
  if (c.buffer < 0) {
    EXPECT_EQ(r.drops, 0u);
  }
  // Something must be delivered in every configuration of this scenario.
  EXPECT_GT(r.delivery_rate, 0.1);
}

TEST_P(ProtocolMatrix, DeterministicAcrossReruns) {
  const MatrixCase c = GetParam();
  const SimResult a = run_case(c, 11);
  const SimResult b = run_case(c, 11);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = to_string(info.param.protocol) + "_" +
                     to_string(info.param.metric) + "_" +
                     (info.param.buffer < 0 ? "unlimited" : "constrained");
  for (char& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name;
}

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  const RoutingMetric metrics[] = {RoutingMetric::kAvgDelay,
                                   RoutingMetric::kMissedDeadlines,
                                   RoutingMetric::kMaxDelay};
  const ProtocolKind rapid_kinds[] = {ProtocolKind::kRapid, ProtocolKind::kRapidGlobal,
                                      ProtocolKind::kRapidLocal};
  for (ProtocolKind kind : rapid_kinds)
    for (RoutingMetric metric : metrics)
      for (Bytes buffer : {Bytes{-1}, 20_KB}) cases.push_back({kind, metric, buffer});
  // Baselines ignore the metric; one entry per storage class suffices.
  for (ProtocolKind kind : {ProtocolKind::kMaxProp, ProtocolKind::kSprayWait,
                            ProtocolKind::kProphet, ProtocolKind::kRandom,
                            ProtocolKind::kRandomAcks, ProtocolKind::kEpidemic})
    for (Bytes buffer : {Bytes{-1}, 20_KB})
      cases.push_back({kind, RoutingMetric::kAvgDelay, buffer});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolMatrix, ::testing::ValuesIn(all_cases()),
                         case_name);

}  // namespace
}  // namespace rapid
