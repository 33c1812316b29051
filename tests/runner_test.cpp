// Tests for the parallel experiment-runner subsystem: thread pool behavior,
// bit-identical parallel sweeps, the scenario registry, result aggregation,
// and the NaN guards in the summarize helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/rapid_router.h"
#include "runner/figures.h"
#include "runner/result_store.h"
#include "runner/scenario_registry.h"
#include "runner/sweep_executor.h"
#include "runner/thread_pool.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "sim/simulation.h"
#include "util/csv.h"

namespace rapid {
namespace {

// A small, fast scenario for executor tests.
ScenarioConfig tiny_exponential_scenario() {
  ScenarioConfig config = make_exponential_scenario();
  config.exponential.num_nodes = 8;
  config.exponential.duration = 120.0;
  config.synthetic_runs = 2;
  return config;
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.avg_delay, b.avg_delay);
  EXPECT_EQ(a.avg_delay_with_undelivered, b.avg_delay_with_undelivered);
  EXPECT_EQ(a.max_delay, b.max_delay);
  EXPECT_EQ(a.deadline_rate, b.deadline_rate);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.ack_purges, b.ack_purges);
  EXPECT_EQ(a.partial_transfers, b.partial_transfers);
  EXPECT_EQ(a.partial_bytes, b.partial_bytes);
  ASSERT_EQ(a.delivery_time.size(), b.delivery_time.size());
  for (std::size_t i = 0; i < a.delivery_time.size(); ++i)
    EXPECT_EQ(a.delivery_time[i], b.delivery_time[i]) << "packet " << i;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  runner::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEachIndexOnce) {
  runner::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(57);
  runner::parallel_for(&pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForSerialWithoutPool) {
  std::vector<int> order;
  runner::parallel_for(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  runner::ThreadPool pool(2);
  EXPECT_THROW(runner::parallel_for(&pool, 8,
                                    [](std::size_t i) {
                                      if (i == 3) throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
}

TEST(SweepExecutor, ParallelBitIdenticalToSerial) {
  const Scenario scenario(tiny_exponential_scenario());
  const std::vector<double> loads = {5, 15};
  RunSpec rapid_spec;
  rapid_spec.protocol = ProtocolKind::kRapid;
  RunSpec random_spec;
  random_spec.protocol = ProtocolKind::kRandom;
  const std::vector<RunSpec> specs = {rapid_spec, random_spec};

  runner::SweepExecutor serial(1);
  runner::SweepExecutor parallel(4);
  const std::vector<Series> a = serial.load_sweep(scenario, loads, specs);
  const std::vector<Series> b = parallel.load_sweep(scenario, loads, specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].x, b[s].x);
    ASSERT_EQ(a[s].cells.size(), b[s].cells.size());
    for (std::size_t i = 0; i < a[s].cells.size(); ++i) {
      ASSERT_EQ(a[s].cells[i].size(), b[s].cells[i].size());
      for (std::size_t run = 0; run < a[s].cells[i].size(); ++run)
        expect_results_identical(a[s].cells[i][run], b[s].cells[i][run]);
    }
  }

  // Summary rows built from both grids are bit-identical too.
  for (std::size_t s = 0; s < a.size(); ++s) {
    for (std::size_t i = 0; i < a[s].cells.size(); ++i) {
      const Summary sa = summarize_cell(a[s].cells[i], extract_avg_delay);
      const Summary sb = summarize_cell(b[s].cells[i], extract_avg_delay);
      EXPECT_EQ(sa.n, sb.n);
      EXPECT_EQ(sa.mean, sb.mean);
      EXPECT_EQ(sa.ci_half_width, sb.ci_half_width);
    }
  }
}

TEST(SweepExecutor, BufferSweepParallelBitIdenticalToSerial) {
  const Scenario scenario(tiny_exponential_scenario());
  const std::vector<Bytes> buffers = {10_KB, 100_KB};
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;

  runner::SweepExecutor serial(1);
  runner::SweepExecutor parallel(3);
  const Series a = serial.buffer_sweep(scenario, 10.0, buffers, {spec})[0];
  const Series b = parallel.buffer_sweep(scenario, 10.0, buffers, {spec})[0];

  ASSERT_EQ(a.x, b.x);
  EXPECT_EQ(a.x[0], 10.0);  // KB axis
  for (std::size_t i = 0; i < a.cells.size(); ++i)
    for (std::size_t run = 0; run < a.cells[i].size(); ++run)
      expect_results_identical(a.cells[i][run], b.cells[i][run]);
}

TEST(SweepExecutor, MatchesLegacySweepFunctions) {
  const Scenario scenario(tiny_exponential_scenario());
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const Series via_sweep = sweep_load(scenario, {10.0}, spec);
  const Series via_executor =
      runner::SweepExecutor(2).load_sweep(scenario, {10.0}, {spec})[0];
  ASSERT_EQ(via_sweep.cells.size(), via_executor.cells.size());
  for (std::size_t run = 0; run < via_sweep.cells[0].size(); ++run)
    expect_results_identical(via_sweep.cells[0][run], via_executor.cells[0][run]);
}

TEST(ScenarioRegistry, LooksUpBuiltinScenarios) {
  auto& registry = runner::ScenarioRegistry::global();
  for (const char* name : {"trace", "trace-full", "exponential", "powerlaw",
                           "trace-large", "trace-longday", "trace-mixed-deadline",
                           "exponential-dense", "powerlaw-steep", "powerlaw-large",
                           "trace-interrupted", "trace-asymmetric", "vehicular-grid",
                           "working-day", "powerlaw-stream"}) {
    ASSERT_NE(registry.find(name), nullptr) << name;
    EXPECT_FALSE(registry.find(name)->description.empty()) << name;
  }
  EXPECT_EQ(registry.make("trace").mobility, MobilityKind::kTrace);
  EXPECT_EQ(registry.make("exponential").mobility, MobilityKind::kExponential);
  EXPECT_EQ(registry.make("powerlaw").mobility, MobilityKind::kPowerlaw);
  EXPECT_EQ(registry.make("trace-large").dieselnet.fleet_size, 40);
  EXPECT_GT(registry.make("trace-mixed-deadline").urgent_fraction, 0.0);
  EXPECT_GT(registry.make("trace-interrupted").link.interruption_rate, 0.0);
  EXPECT_FALSE(registry.make("trace").link.asymmetric());
  EXPECT_TRUE(registry.make("trace-asymmetric").link.asymmetric());
}

TEST(ScenarioRegistry, PowerlawLargeMeetsItsScaleFloor) {
  const ScenarioConfig config = runner::ScenarioRegistry::global().make("powerlaw-large");
  EXPECT_EQ(config.mobility, MobilityKind::kPowerlaw);
  EXPECT_GE(config.powerlaw.num_nodes, 500);
  // The advertised load-3 operating point generates >= 10k packets.
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, 3.0);
  EXPECT_GE(inst.workload.size(), 10000u);
  EXPECT_GT(inst.schedule.size(), 0u);
}

TEST(ScenarioRegistry, StreamingScenariosDeclareTheirShape) {
  auto& registry = runner::ScenarioRegistry::global();
  const ScenarioConfig vehicular = registry.make("vehicular-grid");
  EXPECT_EQ(vehicular.mobility, MobilityKind::kVehicularGrid);
  const ScenarioConfig working = registry.make("working-day");
  EXPECT_EQ(working.mobility, MobilityKind::kWorkingDay);

  const ScenarioConfig stream = registry.make("powerlaw-stream");
  EXPECT_EQ(stream.mobility, MobilityKind::kPowerlaw);
  EXPECT_TRUE(stream.stream_mobility);
  EXPECT_GE(stream.powerlaw.num_nodes, 2000);
  // The streaming path never materializes a schedule: the instance carries a
  // model factory and the experiment bounds instead.
  ScenarioConfig tiny = stream;
  tiny.powerlaw.num_nodes = 40;  // keep the registry's shape checks fast
  const Scenario scenario(tiny);
  const Instance inst = scenario.instance(0, 3.0);
  EXPECT_TRUE(static_cast<bool>(inst.make_model));
  EXPECT_EQ(inst.schedule.size(), 0u);
  EXPECT_EQ(inst.num_nodes, 40);
  EXPECT_EQ(inst.duration, tiny.powerlaw.duration);
}

// One figure cell through both mobility paths: materialized MeetingSchedule
// vs streaming MobilityModel. Every SimResult field must be bit-identical —
// the acceptance bar for the streaming-mobility refactor, mirroring the
// utility-cache dual-path tests below.
SimResult run_mobility_path_cell(const std::string& scenario_name, double load,
                                 bool streaming, ProtocolKind protocol) {
  ScenarioConfig config = runner::ScenarioRegistry::global().make(scenario_name);
  if (config.mobility == MobilityKind::kTrace) config.days = 1;
  config.synthetic_runs = 1;
  config.stream_mobility = streaming;
  // Trim the movement models so each cell runs in well under a second.
  config.vehicular.num_vehicles = 14;
  config.vehicular.duration = 900.0;
  config.working_day.num_nodes = 20;
  config.working_day.duration = config.working_day.day_length;
  const Scenario scenario(config);
  RunSpec spec;
  spec.protocol = protocol;
  return run_instance(scenario, scenario.instance(0, load), spec);
}

TEST(MobilityPath, PowerlawCellBitIdenticalStreamedVsMaterialized) {
  expect_results_identical(
      run_mobility_path_cell("powerlaw", 10.0, false, ProtocolKind::kRapid),
      run_mobility_path_cell("powerlaw", 10.0, true, ProtocolKind::kRapid));
}

TEST(MobilityPath, TraceCellBitIdenticalStreamedVsMaterialized) {
  // Trace replay streams from a cursor over the recorded day instead of
  // copying the day's meeting vector into the instance.
  expect_results_identical(
      run_mobility_path_cell("trace", 4.0, false, ProtocolKind::kRapid),
      run_mobility_path_cell("trace", 4.0, true, ProtocolKind::kRapid));
}

TEST(MobilityPath, VehicularGridCellBitIdenticalStreamedVsMaterialized) {
  expect_results_identical(
      run_mobility_path_cell("vehicular-grid", 6.0, false, ProtocolKind::kMaxProp),
      run_mobility_path_cell("vehicular-grid", 6.0, true, ProtocolKind::kMaxProp));
}

TEST(MobilityPath, WorkingDayCellBitIdenticalStreamedVsMaterialized) {
  expect_results_identical(
      run_mobility_path_cell("working-day", 6.0, false, ProtocolKind::kRapid),
      run_mobility_path_cell("working-day", 6.0, true, ProtocolKind::kRapid));
}

TEST(SweepExecutor, StreamingScenarioParallelBitIdenticalToSerial) {
  // Rng::split determinism survives the streaming path: a parallel sweep
  // over a streaming scenario matches the serial grid bit for bit.
  ScenarioConfig config = runner::ScenarioRegistry::global().make("working-day");
  config.stream_mobility = true;
  config.working_day.num_nodes = 16;
  config.working_day.duration = config.working_day.day_length;
  config.synthetic_runs = 2;
  const Scenario scenario(config);
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;

  runner::SweepExecutor serial(1);
  runner::SweepExecutor parallel(4);
  const std::vector<Series> a = serial.load_sweep(scenario, {4.0, 10.0}, {spec});
  const std::vector<Series> b = parallel.load_sweep(scenario, {4.0, 10.0}, {spec});
  for (std::size_t i = 0; i < a[0].cells.size(); ++i)
    for (std::size_t run = 0; run < a[0].cells[i].size(); ++run)
      expect_results_identical(a[0].cells[i][run], b[0].cells[i][run]);
}

TEST(LinkScenarios, InterruptedTraceChargesPartialsAndRunsDeterministically) {
  ScenarioConfig config = runner::ScenarioRegistry::global().make("trace-interrupted");
  config.days = 1;
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, 8.0);
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const SimResult a = run_instance(scenario, inst, spec);
  const SimResult b = run_instance(scenario, inst, spec);
  expect_results_identical(a, b);
  EXPECT_GT(a.partial_transfers, 0u);
  EXPECT_LE(a.data_bytes + a.metadata_bytes, a.capacity_bytes);
}

TEST(LinkScenarios, AsymmetricTraceRunsAndStaysWithinCapacity) {
  ScenarioConfig config = runner::ScenarioRegistry::global().make("trace-asymmetric");
  config.days = 1;
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, 8.0);
  RunSpec spec;
  spec.protocol = ProtocolKind::kMaxProp;
  const SimResult r = run_instance(scenario, inst, spec);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_LE(r.data_bytes + r.metadata_bytes, r.capacity_bytes);
}

TEST(SimulationPath, FigureCellBitIdenticalAcrossLegacyAndSteppedPaths) {
  // One cell of Fig 4 (trace scenario, RAPID) through both APIs: the legacy
  // run_instance -> run_simulation wrapper, and the event-driven Simulation
  // driven incrementally with run_until().
  ScenarioConfig config = runner::ScenarioRegistry::global().make("trace");
  config.days = 1;
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, 4.0);
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  const SimResult legacy = run_instance(scenario, inst, spec);

  ProtocolParams params = scenario.protocol_params();
  params.metric = spec.metric;
  const RouterFactory factory =
      make_protocol_factory(spec.protocol, params, scenario.config().buffer_capacity);
  SimConfig sim_config;
  sim_config.contact.link = scenario.config().link;
  sim_config.contact.link.seed ^= inst.link_seed;  // mirror run_instance
  Simulation sim(inst.schedule, inst.workload, factory, sim_config);
  const Time slice = inst.schedule.duration / 7.0;
  for (int i = 1; i <= 7; ++i) sim.run_until(slice * static_cast<Time>(i));
  sim.run();  // any remainder within the day
  expect_results_identical(legacy, sim.finish());
}

// The replica-rate sum recomputed from scratch, in the router's order: the
// fresh self term first, then every other holder in the metadata record.
double reference_rate(const RapidRouter& router, const Packet& p) {
  double rate = 0;
  const double self_delay = router.direct_delay(p);
  if (self_delay > 0 && self_delay != kTimeInfinity) rate += 1.0 / self_delay;
  for (const ReplicaEstimate& est : router.metadata().replicas(p.id)) {
    if (est.holder == router.self()) continue;
    if (est.direct_delay > 0 && est.direct_delay != kTimeInfinity)
      rate += 1.0 / est.direct_delay;
  }
  return rate;
}

// One cell of a figure sweep (one scenario run at one load) stepped through
// a Simulation. Every 50 steps, each RAPID router's memoized replica_rate
// for each buffered packet must equal the reference sum exactly: a memo key
// that misses an input serves a stale sum here. Returns the finished
// result.
SimResult expect_rate_memo_matches_reference(const std::string& scenario_name,
                                             RoutingMetric metric, double load,
                                             Bytes buffer_override = -2) {
  ScenarioConfig config = runner::ScenarioRegistry::global().make(scenario_name);
  if (config.mobility == MobilityKind::kTrace) config.days = 1;
  config.synthetic_runs = 1;
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, load);
  ProtocolParams params = scenario.protocol_params();
  params.metric = metric;
  const Bytes buffer = buffer_override != -2 ? buffer_override : config.buffer_capacity;
  const RouterFactory factory = make_protocol_factory(ProtocolKind::kRapid, params, buffer);
  SimConfig sim_config;
  sim_config.contact.charge_metadata = true;
  sim_config.contact.link = config.link;
  sim_config.contact.link.seed ^= inst.link_seed;  // mirror run_instance
  Simulation sim(inst.schedule, inst.workload, factory, sim_config);

  std::size_t checked = 0;
  std::uint64_t hits = 0;
  const auto check = [&] {
    for (NodeId n = 0; n < sim.num_nodes(); ++n) {
      const auto* router = dynamic_cast<const RapidRouter*>(&sim.router(n));
      ASSERT_NE(router, nullptr);
      router->buffer().for_each([&](PacketId id, Bytes /*size*/) {
        const Packet& p = inst.workload.get(id);
        EXPECT_EQ(router->replica_rate(p), reference_rate(*router, p))
            << "node " << n << " packet " << id << " at t=" << sim.now();
        ++checked;
      });
    }
  };
  for (int steps = 1; sim.step(); ++steps)
    if (steps % 50 == 0) check();
  check();
  for (NodeId n = 0; n < sim.num_nodes(); ++n)
    hits += dynamic_cast<const RapidRouter&>(sim.router(n)).utility_cache().stats().rate_hits;
  EXPECT_GT(checked, 0u);
  EXPECT_GT(hits, 0u);  // the memo served sums, so the comparison saw hits
  return sim.finish();
}

// Reference checks on figure cells: Fig 4 (trace avg delay), Fig 7 (trace
// deadline metric, also with a 4 KB buffer so eviction re-scores the buffer
// on every arrival) and Fig 16 (powerlaw avg delay).
TEST(UtilityCachePath, Fig4CellBitIdenticalEagerVsCached) {
  expect_rate_memo_matches_reference("trace", RoutingMetric::kAvgDelay, 4.0);
}

TEST(UtilityCachePath, Fig7CellBitIdenticalEagerVsCached) {
  expect_rate_memo_matches_reference("trace", RoutingMetric::kMissedDeadlines, 4.0);
}

TEST(UtilityCachePath, Fig7SmallBufferCellBitIdenticalEagerVsCached) {
  const SimResult result =
      expect_rate_memo_matches_reference("trace", RoutingMetric::kMissedDeadlines, 4.0, 4_KB);
  EXPECT_GT(result.drops, 0u);
}

TEST(UtilityCachePath, Fig16CellBitIdenticalEagerVsCached) {
  expect_rate_memo_matches_reference("powerlaw", RoutingMetric::kAvgDelay, 10.0);
}

TEST(ScenarioRegistry, UnknownNameThrowsWithKnownNames) {
  auto& registry = runner::ScenarioRegistry::global();
  EXPECT_EQ(registry.find("no-such-scenario"), nullptr);
  try {
    registry.make("no-such-scenario");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("trace"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndEmptyNames) {
  runner::ScenarioRegistry registry;
  registry.add({"a", "first", [] { return ScenarioConfig{}; }});
  EXPECT_THROW(registry.add({"a", "again", [] { return ScenarioConfig{}; }}),
               std::invalid_argument);
  EXPECT_THROW(registry.add({"", "anon", [] { return ScenarioConfig{}; }}),
               std::invalid_argument);
  EXPECT_THROW(registry.add({"b", "no builder", nullptr}), std::invalid_argument);
}

TEST(MixedDeadlines, UrgentFractionAssignsBothDeadlines) {
  ScenarioConfig config = runner::ScenarioRegistry::global().make("trace-mixed-deadline");
  config.days = 1;
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, 8.0);

  std::size_t urgent = 0, normal = 0;
  for (const Packet& p : inst.workload.all()) {
    const Time relative = p.deadline - p.created;
    if (std::abs(relative - config.urgent_deadline) < 1e-9) ++urgent;
    else if (std::abs(relative - config.deadline) < 1e-9) ++normal;
    else FAIL() << "unexpected relative deadline " << relative;
  }
  EXPECT_GT(urgent, 0u);
  EXPECT_GT(normal, 0u);
}

TEST(MixedDeadlines, ArrivalProcessMatchesBaseScenario) {
  ScenarioConfig mixed = runner::ScenarioRegistry::global().make("trace-mixed-deadline");
  mixed.days = 1;
  ScenarioConfig base = mixed;
  base.urgent_fraction = 0.0;

  const Instance a = Scenario(mixed).instance(0, 8.0);
  const Instance b = Scenario(base).instance(0, 8.0);
  ASSERT_EQ(a.workload.size(), b.workload.size());
  for (std::size_t i = 0; i < a.workload.size(); ++i) {
    const Packet& pa = a.workload.all()[i];
    const Packet& pb = b.workload.all()[i];
    EXPECT_EQ(pa.created, pb.created);
    EXPECT_EQ(pa.src, pb.src);
    EXPECT_EQ(pa.dst, pb.dst);
  }
}

TEST(SummarizeCell, SkipsRunsWithoutSignal) {
  SimResult delivered;
  delivered.total_packets = 4;
  delivered.delivered = 2;
  delivered.avg_delay = 100.0;
  SimResult starved;  // nothing delivered, nothing sent
  starved.total_packets = 4;

  const Summary s = summarize_cell({delivered, starved}, extract_avg_delay);
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.mean, 100.0);

  const Summary none = summarize_cell({starved}, extract_avg_delay);
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.mean, 0.0);  // NaN-free even with zero usable runs
}

TEST(Extractors, ReturnNanWhenMetricUndefined) {
  SimResult empty;
  EXPECT_TRUE(std::isnan(extract_avg_delay(empty)));
  EXPECT_TRUE(std::isnan(extract_max_delay(empty)));
  EXPECT_TRUE(std::isnan(extract_delivery_rate(empty)));
  EXPECT_TRUE(std::isnan(extract_metadata_over_data(empty)));
  EXPECT_TRUE(std::isnan(extract_channel_utilization(empty)));
}

TEST(ResultStore, SummaryTableMarksStarvedCells) {
  Series series;
  series.x = {1.0, 2.0};
  SimResult starved;
  starved.total_packets = 0;
  SimResult delivered;
  delivered.delivered = 2;
  delivered.avg_delay = 30.0;
  series.cells = {{starved, starved}, {delivered, starved}};

  runner::ResultStore store("load");
  store.add_series("RAPID", series);
  const Table table = store.summary_table(extract_avg_delay, 1.0);
  ASSERT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.rows()[0][1], "n/a");
  // Partially starved cells disclose how many runs carried signal.
  EXPECT_NE(table.rows()[1][1].find("n=1/2"), std::string::npos);
}

TEST(ResultStore, RawTableListsEveryRun) {
  Series series;
  series.x = {2.0};
  SimResult delivered;
  delivered.delivered = 1;
  delivered.avg_delay = 30.0;
  SimResult starved;
  series.cells = {{delivered, starved}};

  runner::ResultStore store("load");
  store.add_series("RAPID", series);
  const Table table = store.raw_table(extract_avg_delay, 0.5);
  ASSERT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.rows()[0][0], "RAPID");
  EXPECT_EQ(table.rows()[0][3], format_double(15.0, 6));  // scaled
  EXPECT_EQ(table.rows()[1][3], "n/a");                   // starved run
}

TEST(ResultStore, RejectsMismatchedAxes) {
  Series a, b;
  a.x = {1.0};
  a.cells = {{}};
  b.x = {2.0};
  b.cells = {{}};
  runner::ResultStore store("load");
  store.add_series("one", a);
  EXPECT_THROW(store.add_series("two", b), std::invalid_argument);
}

TEST(FigureCatalog, FindsFiguresByFlexibleId) {
  EXPECT_NE(runner::find_figure("4"), nullptr);
  EXPECT_NE(runner::find_figure("fig4"), nullptr);
  EXPECT_NE(runner::find_figure("Fig 4"), nullptr);
  EXPECT_NE(runner::find_figure("table3"), nullptr);
  EXPECT_EQ(runner::find_figure("99"), nullptr);
  // Figs 4-7 (the headline trace comparisons) are declarative sweep entries.
  for (const char* id : {"4", "5", "6", "7"}) {
    const runner::FigureDef* fig = runner::find_figure(id);
    ASSERT_NE(fig, nullptr) << id;
    EXPECT_FALSE(fig->custom) << id;
    EXPECT_EQ(fig->scenario, "trace") << id;
    EXPECT_EQ(fig->series.size(), 4u) << id;
  }
}

TEST(TableJson, EmitsNumbersAndEscapedStrings) {
  Table table({"x", "label \"q\""});
  table.add_row(std::vector<std::string>{"4", "12.50 (±0.25)"});
  table.add_row(std::vector<std::string>{"nan", "n/a"});
  table.add_row(std::vector<std::string>{"-3e2", "+5"});
  table.add_row(std::vector<std::string>{"0x1A", "007"});
  std::ostringstream os;
  table.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"x\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"label \\\"q\\\"\": \"12.50 (±0.25)\""), std::string::npos);
  // Only strict JSON-grammar numbers go unquoted; stod-isms ("nan", "+5",
  // hex, leading zeros) stay strings so the output always parses.
  EXPECT_NE(json.find("\"x\": \"nan\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": -3e2"), std::string::npos);
  EXPECT_NE(json.find("\"label \\\"q\\\"\": \"+5\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": \"0x1A\""), std::string::npos);
  EXPECT_NE(json.find("\"label \\\"q\\\"\": \"007\""), std::string::npos);
}

}  // namespace
}  // namespace rapid
