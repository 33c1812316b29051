// Tests for the runtime observability layer: the metrics registry's
// merge/snapshot semantics, the trace ring, exclusive-time phase accounting,
// Chrome trace export (golden file + lossless round trip), replication-tree
// reconstruction, the simulation-core wiring (counters vs SimResult), the
// determinism contract (tracing/profiling never changes figure output), and
// the MetricsCollector capacity/meeting accrual across every event-source
// kind.
//
// Regenerate the golden trace with:
//   RAPID_REGEN_GOLDEN=1 ./rapid_tests --gtest_filter='*GoldenFile*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mobility/mobility_model.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "obs/trace_read.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "sim/simulation.h"

namespace rapid {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Hist;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Phase;
using obs::TraceBuffer;
using obs::TraceEvent;
using obs::TraceEventKind;

// --- metrics registry ----------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistogramsAccumulate) {
  MetricsRegistry reg;
  reg.add(Counter::kRouterDrops);
  reg.add(Counter::kRouterDrops, 4);
  reg.gauge_max(Gauge::kUtilityTrackedPackets, 10);
  reg.gauge_max(Gauge::kUtilityTrackedPackets, 3);  // lower: ignored
  reg.observe(Hist::kContactCapacityBytes, 100);
  reg.observe(Hist::kContactCapacityBytes, 300);

  EXPECT_EQ(reg.counter(Counter::kRouterDrops), 5u);
  EXPECT_EQ(reg.gauge(Gauge::kUtilityTrackedPackets), 10u);
  const obs::Histogram& h = reg.hist(Hist::kContactCapacityBytes);
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 400u);
  EXPECT_EQ(h.min, 100u);
  EXPECT_EQ(h.max, 300u);
}

TEST(MetricsRegistryTest, SnapshotKeysSortedAndComplete) {
  MetricsRegistry reg;
  reg.add(Counter::kSimEventsMeeting, 9);
  const MetricsSnapshot snap = reg.snapshot();

  // Every catalog entry appears exactly once; histograms flatten to 4 keys.
  const std::size_t expected =
      static_cast<std::size_t>(Counter::kCount) +
      static_cast<std::size_t>(Gauge::kCount) +
      static_cast<std::size_t>(Hist::kCount) * 4;
  EXPECT_EQ(snap.samples.size(), expected);
  for (std::size_t i = 1; i < snap.samples.size(); ++i)
    EXPECT_LT(snap.samples[i - 1].name, snap.samples[i].name);
  EXPECT_EQ(snap.value("sim.events.meeting"), 9u);
  EXPECT_EQ(snap.value("no.such.key"), 0u);
}

TEST(MetricsRegistryTest, SnapshotNamesViewStaticCatalogStorage) {
  // Snapshot keys are views of the static catalog (histogram keys included),
  // so two snapshots of different registries share their name storage and a
  // snapshot allocates no key string.
  MetricsRegistry a;
  MetricsRegistry b;
  b.observe(Hist::kContactCapacityBytes, 7);
  const MetricsSnapshot first = a.snapshot();
  const MetricsSnapshot second = b.snapshot();
  ASSERT_EQ(first.samples.size(), second.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    EXPECT_EQ(first.samples[i].name, second.samples[i].name);
    EXPECT_EQ(static_cast<const void*>(first.samples[i].name.data()),
              static_cast<const void*>(second.samples[i].name.data()))
        << first.samples[i].name;
  }
  EXPECT_EQ(second.value("contact.capacity_bytes.count"), 1u);
}

TEST(MetricsRegistryTest, SnapshotJsonIsStable) {
  MetricsRegistry reg;
  reg.add(Counter::kMobilityPops, 2);
  const std::string a = reg.snapshot().to_json();
  const std::string b = reg.snapshot().to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"mobility.pops\": 2"), std::string::npos);
  // All catalog names resolve (no "?" placeholder leaked into the dump).
  EXPECT_EQ(a.find("\"?\""), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBucketsByBitWidth) {
  obs::Histogram h;
  h.observe(0);  // bucket 0
  h.observe(1);  // bucket 0
  h.observe(7);  // bucket 2
  h.observe(8);  // bucket 3
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.count, 4u);
}

// --- trace ring ----------------------------------------------------------------

TraceEvent event_at(Time t) {
  TraceEvent e;
  e.time = t;
  e.kind = TraceEventKind::kPacketCreate;
  return e;
}

TEST(TraceBufferTest, DisabledWhenCapacityZero) {
  TraceBuffer buf(0);
  EXPECT_FALSE(buf.enabled());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.chronological().empty());
}

TEST(TraceBufferTest, WrapsKeepingMostRecentInOrder) {
  TraceBuffer buf(4);
  ASSERT_TRUE(buf.enabled());
  for (int i = 0; i < 6; ++i) buf.emit(event_at(static_cast<Time>(i)));

  EXPECT_EQ(buf.total(), 6u);
  EXPECT_EQ(buf.dropped(), 2u);
  EXPECT_EQ(buf.size(), 4u);
  const std::vector<TraceEvent> events = buf.chronological();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].time, static_cast<Time>(i + 2));
}

TEST(TraceBufferTest, NoDropsBelowCapacity) {
  TraceBuffer buf(8);
  for (int i = 0; i < 5; ++i) buf.emit(event_at(static_cast<Time>(i)));
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.chronological().size(), 5u);
}

#if RAPID_OBS_ENABLED

// --- context install / phase accounting ----------------------------------------

TEST(ObsContextTest, ContextScopeInstallsAndRestores) {
  EXPECT_EQ(obs::current(), nullptr);
  obs::ObsContext outer;
  {
    obs::ContextScope a(&outer);
    EXPECT_EQ(obs::current(), &outer);
    obs::ObsContext inner;
    {
      obs::ContextScope b(&inner);
      EXPECT_EQ(obs::current(), &inner);
    }
    EXPECT_EQ(obs::current(), &outer);
  }
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsContextTest, MacrosAreNoopsWithoutContext) {
  ASSERT_EQ(obs::current(), nullptr);
  RAPID_OBS_INC(kRouterDrops);
  RAPID_OBS_GAUGE_MAX(kTraceEvents, 5);
  RAPID_OBS_HIST(kContactCapacityBytes, 10);
  RAPID_OBS_TRACE(kPacketDrop, 1.0, 0, 1, 2, 3);
  RAPID_OBS_PHASE(kRouting);  // profile disabled: also a no-op
}

TEST(ObsContextTest, MacrosHitTheInstalledContext) {
  obs::ObsConfig config;
  config.trace_capacity = 8;
  obs::ObsContext ctx(config);
  {
    obs::ContextScope scope(&ctx);
    RAPID_OBS_INC(kRouterDrops);
    RAPID_OBS_ADD(kContactDataBytes, 100);
    RAPID_OBS_TRACE(kPacketDrop, 1.5, 3, kNoNode, 7, 1024);
  }
  EXPECT_EQ(ctx.metrics.counter(Counter::kRouterDrops), 1u);
  EXPECT_EQ(ctx.metrics.counter(Counter::kContactDataBytes), 100u);
  ASSERT_EQ(ctx.trace.size(), 1u);
  const TraceEvent e = ctx.trace.chronological()[0];
  EXPECT_EQ(e.kind, TraceEventKind::kPacketDrop);
  EXPECT_EQ(e.a, 3);
  EXPECT_EQ(e.packet, 7);
  EXPECT_EQ(e.value, 1024);
}

// Busy-waits until the monotonic clock has advanced by `ns`.
void spin_for_ns(std::uint64_t ns) {
  const std::uint64_t start = obs::monotonic_ns();
  while (obs::monotonic_ns() - start < ns) {
  }
}

TEST(PhaseScopeTest, ExclusiveAccountingNeverDoubleCounts) {
  obs::ObsConfig config;
  config.profile = true;
  obs::ObsContext ctx(config);
  constexpr std::uint64_t kInnerNs = 10'000'000;  // 10 ms
  constexpr std::uint64_t kOuterNs = 2'000'000;   // 2 ms on each side
  const std::uint64_t wall_start = obs::monotonic_ns();
  {
    obs::ContextScope scope(&ctx);
    RAPID_OBS_PHASE(kDispatch);
    spin_for_ns(kOuterNs);
    {
      RAPID_OBS_PHASE(kRouting);
      spin_for_ns(kInnerNs);
    }
    spin_for_ns(kOuterNs);
  }
  const std::uint64_t total_wall = obs::monotonic_ns() - wall_start;

  const obs::PhaseProfile& p = ctx.profile;
  const auto dispatch = static_cast<std::size_t>(Phase::kDispatch);
  const auto routing = static_cast<std::size_t>(Phase::kRouting);
  EXPECT_EQ(p.calls[dispatch], 1u);
  EXPECT_EQ(p.calls[routing], 1u);
  // The inner scope's spin lands on routing...
  EXPECT_GE(p.ns[routing], kInnerNs);
  EXPECT_GE(p.ns[dispatch], 2 * kOuterNs);
  // ...and is excluded from the enclosing phase. Inclusive accounting would
  // charge the inner spin to both phases, so attributed time would exceed
  // real wall time by at least kInnerNs; exclusive accounting keeps it at
  // wall time plus scope overhead. Comparing against the measured wall
  // duration (not an absolute budget) keeps this immune to scheduler
  // preemption under a loaded test machine.
  EXPECT_LT(p.attributed_ns(), total_wall + kInnerNs / 2);
  EXPECT_EQ(p.attributed_ns(), p.ns[dispatch] + p.ns[routing]);
}

TEST(PhaseScopeTest, DisabledProfileCostsNoClockReads) {
  obs::ObsContext ctx;  // profile off
  {
    obs::ContextScope scope(&ctx);
    RAPID_OBS_PHASE(kTransfer);
  }
  EXPECT_EQ(ctx.profile.attributed_ns(), 0u);
  EXPECT_EQ(ctx.profile.calls[static_cast<std::size_t>(Phase::kTransfer)], 0u);
}

TEST(ObsContextTest, ReportFoldsTraceOccupancy) {
  obs::ObsConfig config;
  config.trace_capacity = 2;
  obs::ObsContext ctx(config);
  for (int i = 0; i < 5; ++i) ctx.trace.emit(event_at(static_cast<Time>(i)));

  const obs::ObsReport report = ctx.report();
  EXPECT_EQ(report.trace_total, 5u);
  EXPECT_EQ(report.trace_dropped, 3u);
  EXPECT_EQ(report.trace.size(), 2u);
  EXPECT_EQ(report.metrics.value("trace.events"), 5u);
  EXPECT_EQ(report.metrics.value("trace.dropped"), 3u);
}

#endif  // RAPID_OBS_ENABLED

// --- chrome trace export / read round trip --------------------------------------

// The fixed trace behind the golden-file and round-trip tests: one packet's
// full replicate-and-deliver story plus every other event kind once.
std::vector<TraceEvent> tiny_trace() {
  return {
      {0.5, TraceEventKind::kPacketCreate, 0, 4, 0, 1024},
      {1.25, TraceEventKind::kContactOpen, 0, 2, kNoPacket, 8192},
      {1.25, TraceEventKind::kPacketCopy, 0, 2, 0, 1024},
      {1.5, TraceEventKind::kContactClose, 0, 2, 0, 1024},
      {1.75, TraceEventKind::kPacketCopy, 0, 1, 0, 1024},
      {2.0, TraceEventKind::kContactOpen, 2, 4, kNoPacket, 4096},
      {2.0, TraceEventKind::kPacketDeliver, 2, 4, 0, 1024},
      {2.25, TraceEventKind::kPacketPartial, 2, 3, 1, 512},
      {2.5, TraceEventKind::kPacketDrop, 3, kNoNode, 1, 1024},
      {3.0, TraceEventKind::kUtilityRecompute, 1, kNoNode, 0, 1},
      {3.5, TraceEventKind::kContactClose, 2, 4, 0, 1536},
  };
}

std::string golden_trace_path() {
  return std::string(RAPID_SOURCE_DIR) + "/tests/golden/trace_tiny.json";
}

TEST(TraceExportTest, GoldenFileMatchesExactly) {
  const std::string rendered = obs::to_chrome_trace(tiny_trace());
  if (std::getenv("RAPID_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_trace_path());
    ASSERT_TRUE(out) << "cannot write " << golden_trace_path();
    out << rendered;
    return;
  }
  std::ifstream in(golden_trace_path());
  ASSERT_TRUE(in) << "missing golden file " << golden_trace_path()
                  << " (regenerate with RAPID_REGEN_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str());
}

TEST(TraceExportTest, RoundTripIsLossless) {
  const std::vector<TraceEvent> events = tiny_trace();
  const std::vector<TraceEvent> parsed =
      obs::read_chrome_trace(obs::to_chrome_trace(events));
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].time, events[i].time) << "event " << i;
    EXPECT_EQ(parsed[i].kind, events[i].kind) << "event " << i;
    EXPECT_EQ(parsed[i].a, events[i].a) << "event " << i;
    EXPECT_EQ(parsed[i].b, events[i].b) << "event " << i;
    EXPECT_EQ(parsed[i].packet, events[i].packet) << "event " << i;
    EXPECT_EQ(parsed[i].value, events[i].value) << "event " << i;
  }
}

TEST(TraceExportTest, MalformedEntriesAreSkipped) {
  const std::string json =
      "{\"traceEvents\": [\n"
      "{\"name\": \"x\", \"args\": {\"kind\": \"packet_create\", \"t\": 1.0, "
      "\"a\": 1, \"b\": 2, \"packet\": 3, \"value\": 4}},\n"
      "{\"name\": \"broken\", \"args\": {\"kind\": \"no_such_kind\", \"t\": 9}}\n"
      "]}";
  const std::vector<TraceEvent> parsed = obs::read_chrome_trace(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, TraceEventKind::kPacketCreate);
  EXPECT_EQ(parsed[0].packet, 3);
}

TEST(TraceReadTest, PacketLifecycleAndReplicationTree) {
  const obs::PacketLifecycle life = obs::packet_lifecycle(tiny_trace(), 0);
  EXPECT_TRUE(life.created);
  EXPECT_EQ(life.src, 0);
  EXPECT_EQ(life.dst, 4);
  EXPECT_EQ(life.create_time, 0.5);
  EXPECT_EQ(life.size, 1024);
  EXPECT_TRUE(life.delivered);
  EXPECT_EQ(life.deliver_time, 2.0);

  const std::string tree = obs::render_replication_tree(life);
  // Origin 0 copied to 2, which delivered to destination 4.
  EXPECT_NE(tree.find("node 0"), std::string::npos);
  EXPECT_NE(tree.find("node 2"), std::string::npos);
  EXPECT_NE(tree.find("node 4"), std::string::npos);
  EXPECT_NE(tree.find("delivered"), std::string::npos);
  // The copy chain is rendered as a nested branch, not a flat list.
  EXPECT_NE(tree.find("+- "), std::string::npos);
  EXPECT_NE(tree.find("|  "), std::string::npos);
}

// --- simulation-core wiring -----------------------------------------------------

ScenarioConfig tiny_powerlaw_config() {
  ScenarioConfig config = make_powerlaw_scenario();
  config.powerlaw.num_nodes = 12;
  config.powerlaw.duration = 150.0;
  config.synthetic_runs = 1;
  return config;
}

TEST(ObsSimulationTest, CountersMatchSimResult) {
  const Scenario scenario(tiny_powerlaw_config());
  const Instance inst = scenario.instance(0, 10.0);
  RunSpec spec;
  const SimResult result = run_instance(scenario, inst, spec);

  ASSERT_NE(result.obs, nullptr);
  const MetricsSnapshot& m = result.obs->metrics;
#if RAPID_OBS_ENABLED
  EXPECT_EQ(m.value("sim.events.meeting"), result.meetings);
  EXPECT_EQ(m.value("contact.sessions"), result.meetings);
  EXPECT_EQ(m.value("sim.events.packet"), result.total_packets);
  EXPECT_EQ(m.value("contact.deliveries"), result.delivered);
  EXPECT_EQ(m.value("contact.data_bytes"), static_cast<std::uint64_t>(result.data_bytes));
  EXPECT_EQ(m.value("contact.metadata_bytes"),
            static_cast<std::uint64_t>(result.metadata_bytes));
  EXPECT_EQ(m.value("router.drops"), result.drops);
  EXPECT_EQ(m.value("contact.capacity_bytes.sum"),
            static_cast<std::uint64_t>(result.capacity_bytes));
  // RAPID ran with the replica-rate memo: its router-side probes must have
  // flushed through Router::flush_obs.
  EXPECT_GT(m.value("utility.rate_recomputes") + m.value("utility.rate_hits"), 0u);
  // All-RAPID with the in-band control channel: every metadata byte a
  // contact charged was sent by exchange_metadata under one of its five
  // priorities.
  EXPECT_GT(m.value("meta.bytes.scalar"), 0u);
  EXPECT_GT(m.value("meta.bytes.rows"), 0u);
  EXPECT_EQ(m.value("meta.bytes.scalar") + m.value("meta.bytes.acks") +
                m.value("meta.bytes.rows") + m.value("meta.bytes.own") +
                m.value("meta.bytes.relayed"),
            m.value("contact.metadata_bytes"));
#else
  // Stripped build: the report exists but carries only zeros.
  EXPECT_EQ(m.value("sim.events.meeting"), 0u);
#endif
}

TEST(ObsSimulationTest, MeetingMatrixCountersFlushOnTraceScenario) {
  ScenarioConfig config = make_trace_scenario();
  config.days = 1;
  const Scenario scenario(config);
  const SimResult result = run_instance(scenario, scenario.instance(0, 4.0), RunSpec{});
  ASSERT_NE(result.obs, nullptr);
  ASSERT_GT(result.meetings, 0u);
#if RAPID_OBS_ENABLED
  // RAPID's meeting matrices flush their work probes through
  // Router::flush_obs. Trace rows are nearly full, so the entries relaxed
  // outnumber the recomputes.
  const MetricsSnapshot& m = result.obs->metrics;
  EXPECT_GT(m.value("matrix.hop_recomputes"), 0u);
  EXPECT_GT(m.value("matrix.hop_edges"), 0u);
  EXPECT_GT(m.value("matrix.rows_accepted"), 0u);
  EXPECT_GE(m.value("matrix.hop_edges"), m.value("matrix.hop_recomputes"));
#endif
}

TEST(ObsSimulationTest, StreamingRunCountsMobilityPops) {
  // Streamed and materialized instances reach the engine through the same
  // mobility source, so both count one pop per meeting.
  for (const bool stream : {true, false}) {
    ScenarioConfig config = tiny_powerlaw_config();
    config.stream_mobility = stream;
    const Scenario scenario(config);
    const Instance inst = scenario.instance(0, 10.0);
    RunSpec spec;
    const SimResult result = run_instance(scenario, inst, spec);
    ASSERT_NE(result.obs, nullptr);
    EXPECT_GT(result.meetings, 0u) << "stream_mobility=" << stream;
#if RAPID_OBS_ENABLED
    EXPECT_EQ(result.obs->metrics.value("mobility.pops"), result.meetings)
        << "stream_mobility=" << stream;
#endif
  }
}

TEST(ObsSimulationTest, TracingAndProfilingNeverChangeFigureOutput) {
  const Scenario scenario(tiny_powerlaw_config());
  const Instance inst = scenario.instance(0, 10.0);

  RunSpec plain;
  RunSpec observed;
  observed.obs.profile = true;
  observed.obs.trace_capacity = 1 << 16;

  const SimResult a = run_instance(scenario, inst, plain);
  const SimResult b = run_instance(scenario, inst, observed);

  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.avg_delay, b.avg_delay);
  EXPECT_EQ(a.max_delay, b.max_delay);
  EXPECT_EQ(a.deadline_rate, b.deadline_rate);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.meetings, b.meetings);
  ASSERT_EQ(a.delivery_time.size(), b.delivery_time.size());
  for (std::size_t i = 0; i < a.delivery_time.size(); ++i)
    EXPECT_EQ(a.delivery_time[i], b.delivery_time[i]) << "packet " << i;
}

TEST(ObsSimulationTest, TracedRunsAreBitIdentical) {
  const Scenario scenario(tiny_powerlaw_config());
  const Instance inst = scenario.instance(0, 10.0);
  RunSpec spec;
  spec.obs.trace_capacity = 1 << 16;

  const SimResult a = run_instance(scenario, inst, spec);
  const SimResult b = run_instance(scenario, inst, spec);
  ASSERT_NE(a.obs, nullptr);
  ASSERT_NE(b.obs, nullptr);
  // Traces are stamped with simulation time only, so two runs of the same
  // instance export byte-identical JSON.
  EXPECT_EQ(obs::to_chrome_trace(a.obs->trace), obs::to_chrome_trace(b.obs->trace));
}

#if RAPID_OBS_ENABLED
TEST(ObsSimulationTest, ProfiledRunAttributesMostOfTheWall) {
  const Scenario scenario(tiny_powerlaw_config());
  const Instance inst = scenario.instance(0, 20.0);
  RunSpec spec;
  spec.obs.profile = true;
  const SimResult result = run_instance(scenario, inst, spec);

  ASSERT_NE(result.obs, nullptr);
  const obs::PhaseProfile& p = result.obs->profile;
  EXPECT_TRUE(p.enabled);
  EXPECT_GT(p.total_ns, 0u);
  EXPECT_GT(p.calls[static_cast<std::size_t>(Phase::kDispatch)], 0u);
  EXPECT_GT(p.calls[static_cast<std::size_t>(Phase::kRouting)], 0u);
  EXPECT_GT(p.calls[static_cast<std::size_t>(Phase::kTransfer)], 0u);
  EXPECT_LE(p.attributed_ns(), p.total_ns);
  EXPECT_GE(p.coverage(), 0.8);

  // The rendered table carries every phase row plus the summary rows.
  std::ostringstream table;
  obs::print_phase_table(table, p);
  EXPECT_NE(table.str().find("routing"), std::string::npos);
  EXPECT_NE(table.str().find("coverage"), std::string::npos);
}
#endif  // RAPID_OBS_ENABLED

// --- MetricsCollector accrual across event-source kinds -------------------------

// Every way meetings can reach a Simulation. All of them go through a
// MobilityEventSource, so capacity/meeting totals accrue per dispatched
// meeting and agree at every point of the run, not just at its end.
enum class SourceKind {
  kMaterialized,     // Simulation(schedule, ...): the built-in replay source
  kBorrowedReplay,   // make_mobility_source(MobilityModel&) over a replay
  kOwnedReplay,      // make_mobility_source(unique_ptr) over a replay
  kGeneratorStream,  // the scenario's lazy PairStream generator
};

std::string source_kind_name(const ::testing::TestParamInfo<SourceKind>& info) {
  switch (info.param) {
    case SourceKind::kMaterialized: return "Materialized";
    case SourceKind::kBorrowedReplay: return "BorrowedReplay";
    case SourceKind::kOwnedReplay: return "OwnedReplay";
    case SourceKind::kGeneratorStream: return "GeneratorStream";
  }
  return "Unknown";
}

class MetricsAccrualTest : public ::testing::TestWithParam<SourceKind> {};

TEST_P(MetricsAccrualTest, CapacityAndMeetingsAgreeWithMaterialized) {
  const Scenario scenario(tiny_powerlaw_config());
  const Instance inst = scenario.instance(0, 10.0);
  ASSERT_GT(inst.schedule.size(), 0u);

  const RouterFactory factory = make_protocol_factory(
      ProtocolKind::kEpidemic, scenario.protocol_params(), -1);
  const SimConfig sim_config;
  const SimBounds bounds{inst.num_nodes, inst.duration};
  const Time half = inst.duration / 2;

  // A mid-run report counts only the meetings dispatched so far.
  std::size_t meetings_by_half = 0;
  Bytes capacity_by_half = 0;
  for (const Meeting& m : inst.schedule.meetings()) {
    if (m.time > half) break;
    ++meetings_by_half;
    capacity_by_half += m.capacity;
  }
  ASSERT_GT(meetings_by_half, 0u);
  ASSERT_LT(meetings_by_half, inst.schedule.size());

  // Reference: the schedule constructor, reported at half time and at the end.
  SimResult expected_half;
  SimResult expected;
  {
    Simulation sim(inst.schedule, inst.workload, factory, sim_config);
    sim.run_until(half);
    expected_half = sim.report_at(half);
    sim.run();
    expected = sim.finish();
  }
  EXPECT_EQ(expected_half.meetings, meetings_by_half);
  EXPECT_EQ(expected_half.capacity_bytes, capacity_by_half);
  EXPECT_EQ(expected.meetings, inst.schedule.size());
  EXPECT_EQ(expected.capacity_bytes, inst.schedule.total_capacity());

  std::unique_ptr<MobilityModel> borrowed_model;
  std::unique_ptr<Simulation> sim;
  switch (GetParam()) {
    case SourceKind::kMaterialized:
      sim = std::make_unique<Simulation>(inst.schedule, inst.workload, factory, sim_config);
      break;
    case SourceKind::kBorrowedReplay:
      borrowed_model = make_replay_model(inst.schedule);
      sim = std::make_unique<Simulation>(bounds, inst.workload, factory, sim_config);
      sim->add_event_source(make_mobility_source(*borrowed_model));
      break;
    case SourceKind::kOwnedReplay:
      sim = std::make_unique<Simulation>(bounds, inst.workload, factory, sim_config);
      sim->add_event_source(make_mobility_source(make_replay_model(inst.schedule)));
      break;
    case SourceKind::kGeneratorStream:
      sim = std::make_unique<Simulation>(bounds, inst.workload, factory, sim_config);
      sim->add_event_source(make_mobility_source(scenario.model(0)));
      break;
  }
  sim->run_until(half);
  const SimResult actual_half = sim->report_at(half);
  sim->run();
  const SimResult actual = sim->finish();

  EXPECT_EQ(actual_half.meetings, expected_half.meetings);
  EXPECT_EQ(actual_half.capacity_bytes, expected_half.capacity_bytes);
  EXPECT_EQ(actual.meetings, expected.meetings);
  EXPECT_EQ(actual.capacity_bytes, expected.capacity_bytes);
  EXPECT_EQ(actual.delivered, expected.delivered);
  EXPECT_EQ(actual.data_bytes, expected.data_bytes);
  EXPECT_EQ(actual.avg_delay, expected.avg_delay);
}

INSTANTIATE_TEST_SUITE_P(AllSourceKinds, MetricsAccrualTest,
                         ::testing::Values(SourceKind::kMaterialized,
                                           SourceKind::kBorrowedReplay,
                                           SourceKind::kOwnedReplay,
                                           SourceKind::kGeneratorStream),
                         source_kind_name);

}  // namespace
}  // namespace rapid
