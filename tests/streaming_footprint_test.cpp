// Streaming-mobility footprint: the live heap of a powerlaw-stream run must
// not grow with the number of contacts it streams. Measured with glibc's
// mallinfo2 (bytes in use in the arenas plus mmapped blocks) rather than
// process RSS: a materialized schedule of the whole stream is only 24 bytes
// a meeting, a few MB here, which RSS on a process of ~300 MB cannot
// resolve but the live-heap count can. The same count bounds RAPID's
// per-router state against the fleet size.
//
// The suite name is kept out of the sanitizer jobs' test filters: ASan and
// TSan replace malloc, so mallinfo2 would not see the program's heap.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <memory>

#include "runner/scenario_registry.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "sim/simulation.h"

namespace rapid {
namespace {

constexpr double kStretch = 4.0;   // mobility horizon multiplier
constexpr int kSampleEvery = 256;  // pops or steps between heap samples

std::size_t live_heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

struct RunFootprint {
  int meetings = 0;
  std::size_t peak_growth = 0;  // peak live heap above the pre-run level
};

// Steps a Direct-routing Simulation over `scenario`'s contact stream with
// `instance`'s workload to the end, sampling the live heap as it goes.
// Direct routers learn nothing from contacts, so any growth with the
// meeting count belongs to the mobility source or the engine.
RunFootprint direct_run_footprint(const Scenario& scenario, const Instance& instance) {
  const std::size_t before = live_heap_bytes();
  std::size_t peak = before;
  SimConfig config;
  config.contact.link = scenario.config().link;
  config.contact.link.seed ^= instance.link_seed;
  const RouterFactory factory = make_protocol_factory(
      ProtocolKind::kDirect, scenario.protocol_params(), scenario.config().buffer_capacity);
  std::unique_ptr<MobilityModel> model = scenario.model(0);
  Simulation sim(SimBounds{model->num_nodes(), model->duration()}, instance.workload,
                 factory, config);
  sim.add_event_source(make_mobility_source(std::move(model)));
  for (long steps = 1; sim.step(); ++steps) {
    if (steps % kSampleEvery == 0) peak = std::max(peak, live_heap_bytes());
  }
  peak = std::max(peak, live_heap_bytes());
  return {sim.meetings_run(), peak - before};
}

TEST(StreamingFootprint, LiveHeapIsIndependentOfMeetingCount) {
  const ScenarioConfig config = runner::ScenarioRegistry::global().make("powerlaw-stream");
  ASSERT_TRUE(config.stream_mobility);
  ScenarioConfig stretched_config = config;
  stretched_config.powerlaw.duration *= kStretch;
  const Scenario scenario(config);
  const Scenario stretched(stretched_config);

  // (a) Draining the stretched contact stream alone holds no per-meeting
  // state: the live heap stays within 64 KB of where it started.
  {
    const std::unique_ptr<MobilityModel> model = stretched.model(0);
    const std::size_t before = live_heap_bytes();
    std::size_t peak = before;
    long meetings = 0;
    for (; model->peek() != nullptr; model->pop()) {
      if (++meetings % kSampleEvery == 0) peak = std::max(peak, live_heap_bytes());
    }
    peak = std::max(peak, live_heap_bytes());
    EXPECT_GT(meetings, 100000);
    EXPECT_LE(peak - before, std::size_t{64} * 1024)
        << "draining " << meetings << " meetings grew the live heap by "
        << peak - before << " bytes";
  }

  // (b) A whole run over 4x the contacts, same workload and protocol,
  // peaks within 10% of the unstretched run's live heap.
  const Instance instance = scenario.instance(0, 0.25);
  const RunFootprint base = direct_run_footprint(scenario, instance);
  const RunFootprint longer = direct_run_footprint(stretched, instance);
  ASSERT_GT(base.meetings, 0);
  EXPECT_GT(longer.meetings, 3 * base.meetings) << "the stretch did not lengthen the stream";
  EXPECT_LE(static_cast<double>(longer.peak_growth), 1.10 * static_cast<double>(base.peak_growth))
      << "peak live heap: " << base.peak_growth << " bytes over " << base.meetings
      << " meetings, " << longer.peak_growth << " bytes over " << longer.meetings;
}

// RAPID's per-router state grows with the peers and destinations a router
// has learnt about, not with the fleet: meeting rows hold only their finite
// entries, and per-peer and per-destination records exist only once that
// peer was met or that destination queued for. On the 2000-node stream a
// dense per-router layout costs ~350 KB a node before the first contact and
// ~820 MB of live heap an eighth of the way in; the sparse one with 8-byte
// row handles over single-allocation row versions ~52 KB and ~124 MB.
TEST(StreamingFootprint, RapidStateIsSparseInFleetSize) {
  const ScenarioConfig config = runner::ScenarioRegistry::global().make("powerlaw-stream");
  const Scenario scenario(config);
  const Instance instance = scenario.instance(0, 0.02);
  SimConfig sim_config;
  sim_config.contact.link = config.link;
  sim_config.contact.link.seed ^= instance.link_seed;
  const RouterFactory factory = make_protocol_factory(
      ProtocolKind::kRapid, scenario.protocol_params(), config.buffer_capacity);
  std::unique_ptr<MobilityModel> model = scenario.model(0);
  const int nodes = model->num_nodes();
  const Time duration = model->duration();

  const std::size_t before = live_heap_bytes();
  Simulation sim(SimBounds{nodes, duration}, instance.workload, factory, sim_config);
  const std::size_t constructed = live_heap_bytes() - before;
  EXPECT_LE(constructed, std::size_t{64} * 1024 * static_cast<std::size_t>(nodes))
      << "constructing " << nodes << " RAPID routers added " << constructed / nodes
      << " bytes of live heap per node";

  sim.add_event_source(make_mobility_source(std::move(model)));
  sim.run_until(duration / 8);
  ASSERT_GT(sim.meetings_run(), 0);
  const std::size_t grown = live_heap_bytes() - before;
  EXPECT_LE(grown, std::size_t{160} << 20)
      << "the live heap grew by " << (grown >> 20) << " MB over " << sim.meetings_run()
      << " meetings";
}

}  // namespace
}  // namespace rapid
