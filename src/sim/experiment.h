// Shared experiment harness: the three evaluation scenarios of §6.1
// (trace-driven, exponential, power-law) with Table 4 parameters, the
// extended mobility models (vehicular grid, working day), and load/buffer
// sweep drivers used by every bench binary.
//
// Mobility reaches a run two ways (ScenarioConfig::stream_mobility):
//   * materialized (default) — Instance::schedule holds the whole day;
//   * streaming — Instance::make_model builds a MobilityModel and contacts
//     are pulled one at a time, so peak memory never scales with the total
//     contact count. Figure output is bit-identical between the two paths
//     for a given scenario (dual-path tested like the utility cache).
//
// Scale note (see EXPERIMENTS.md): the benches default to a calibrated
// reduced-scale trace (fewer buses, shorter days) so each figure regenerates
// in seconds-to-minutes; `full_dieselnet_config()` reproduces the testbed's
// Table 3 scale. Load semantics follow the paper:
//   * trace: packets per hour per source-destination pair ("4 packets per
//     hour generated by each bus for every other bus");
//   * synthetic: packets per 50 s per destination, split across sources.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dtn/metrics.h"
#include "dtn/packet.h"
#include "dtn/schedule.h"
#include "mobility/dieselnet.h"
#include "mobility/exponential_model.h"
#include "mobility/mobility_model.h"
#include "mobility/powerlaw_model.h"
#include "mobility/vehicular_grid.h"
#include "mobility/working_day.h"
#include "fault/fault_config.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "sim/protocols.h"
#include "stats/summary.h"

namespace rapid {

enum class MobilityKind { kTrace, kExponential, kPowerlaw, kVehicularGrid, kWorkingDay };

struct ScenarioConfig {
  MobilityKind mobility = MobilityKind::kTrace;

  DieselNetConfig dieselnet;  // trace mobility
  int days = 6;               // one run per trace day

  ExponentialMobilityConfig exponential;
  PowerlawMobilityConfig powerlaw;
  VehicularGridConfig vehicular;
  WorkingDayConfig working_day;
  int synthetic_runs = 5;

  // Pull contacts through the streaming MobilityModel path instead of
  // materializing a per-run MeetingSchedule. Results are bit-identical;
  // peak RSS stops scaling with the total contact count.
  bool stream_mobility = false;

  Bytes packet_size = 1_KB;       // Table 4
  Time deadline = kTimeInfinity;  // relative per-packet deadline
  // Mixed-deadline scenarios: this fraction of packets carries the urgent
  // relative deadline instead (0 disables, leaving draws untouched).
  Time urgent_deadline = kTimeInfinity;
  double urgent_fraction = 0.0;
  Bytes buffer_capacity = -1;     // default per scenario
  std::uint64_t seed = 20070623;  // paper revision date; override per experiment

  // Physical-link behavior applied to every contact (mid-transfer
  // interruption, asymmetric per-direction bandwidth); the default reproduces
  // the paper's clean symmetric contacts. See dtn/contact_session.h.
  LinkPolicy link;

  // Fault injection (src/fault): node crash/recover processes and byte-level
  // link corruption / metadata degradation. Defaults disable both, which is
  // bit-identical to a build without the fault subsystem. Per-run streams
  // are derived by run_instance from Instance::fault_seed.
  NodeFaultConfig node_faults;
  LinkFaultConfig link_fault;
};

// Table-3-scale DieselNet (40 buses, 19 h days, ~147 meetings/day, ~1.7 MB
// mean opportunity).
DieselNetConfig full_dieselnet_config();
// Reduced-scale trace with the same shape for fast figure regeneration.
DieselNetConfig bench_dieselnet_config();

ScenarioConfig make_trace_scenario();        // bench scale, deadline 2.7 h
ScenarioConfig make_full_trace_scenario();   // Table 3 / validation scale
ScenarioConfig make_exponential_scenario();  // Table 4 synthetic defaults
ScenarioConfig make_powerlaw_scenario();
ScenarioConfig make_vehicular_grid_scenario();  // grid/map vehicular model
ScenarioConfig make_working_day_scenario();     // home/work community model

struct Instance {
  // Materialized shape (empty when the scenario streams its mobility). The
  // engine replays it through the same mobility source a streamed model
  // uses; the schedule is kept for the readers that need the whole day.
  MeetingSchedule schedule;
  // Streamed shape: builds the run's contact stream on demand. Borrows the
  // Scenario it came from — keep the Scenario alive while running.
  std::function<std::unique_ptr<MobilityModel>()> make_model;
  // Experiment bounds, valid for both shapes.
  int num_nodes = 0;
  Time duration = 0;

  PacketPool workload;
  std::vector<NodeId> active_nodes;
  // Per-run stream for the link policy's interruption draws (derived from
  // the scenario seed and run index, folded into LinkPolicy::seed by
  // run_instance so every run cuts different meetings).
  std::uint64_t link_seed = 0;
  // Per-run stream for fault injection, folded into both the node-fault and
  // link-fault seeds by run_instance (different runs crash different nodes
  // and corrupt different copies).
  std::uint64_t fault_seed = 0;
};

// A scenario materialized into per-run mobility (trace days are generated
// once and shared across loads, like replaying the same recorded day).
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  int runs() const;
  const ScenarioConfig& config() const { return config_; }
  const DieselNetTrace& trace() const { return trace_; }

  // Builds the (schedule-or-model, workload) pair for one run at the given
  // load, honoring config().stream_mobility.
  Instance instance(int run, double load) const;

  // The streaming contact source for one run, regardless of the
  // stream_mobility flag: a replay cursor for trace days, a lazy generator
  // for the synthetic kinds. materialize(*model(run)) equals the
  // materialized schedule of the same run bit-for-bit.
  std::unique_ptr<MobilityModel> model(int run) const;

  // Scenario-appropriate protocol parameters (priors, aging units).
  ProtocolParams protocol_params() const;

 private:
  ScenarioConfig config_;
  DieselNetTrace trace_;  // only for MobilityKind::kTrace

  MeetingSchedule synthetic_schedule(int run) const;
};

struct RunSpec {
  ProtocolKind protocol = ProtocolKind::kRapid;
  RoutingMetric metric = RoutingMetric::kAvgDelay;
  double metadata_cap_fraction = -1.0;  // Fig 8 sweeps this
  Bytes buffer_override = -2;           // -2 = use the scenario default
  // Observability knobs forwarded to every run's Simulation (profiling
  // clocks, trace-ring capacity). Defaults keep both off; the run's report
  // comes back on SimResult::obs either way (counters are always collected).
  obs::ObsConfig obs;
};

SimResult run_instance(const Scenario& scenario, const Instance& instance,
                       const RunSpec& spec);

// One sweep cell: all runs of one protocol at one x value.
struct Series {
  std::vector<double> x;
  std::vector<std::vector<SimResult>> cells;  // cells[i] = results at x[i]
};

// Aggregation helpers for bench output. Extractors return NaN when the run
// carries no signal for the metric (e.g. avg delay with zero deliveries);
// summarize_cell skips non-finite values, so a sweep over starved cells
// reports n = 0 instead of a zero-biased mean.
using MetricExtractor = double (*)(const SimResult&);
double extract_avg_delay(const SimResult& r);
double extract_avg_delay_with_undelivered(const SimResult& r);
double extract_max_delay(const SimResult& r);
double extract_delivery_rate(const SimResult& r);
double extract_deadline_rate(const SimResult& r);
double extract_metadata_over_data(const SimResult& r);
double extract_metadata_over_capacity(const SimResult& r);
double extract_channel_utilization(const SimResult& r);

Summary summarize_cell(const std::vector<SimResult>& cell, MetricExtractor extract);

}  // namespace rapid
