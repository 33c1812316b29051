#include "sim/experiment.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "dtn/workload.h"
#include "runner/sweep_executor.h"

namespace rapid {

DieselNetConfig full_dieselnet_config() {
  DieselNetConfig config;  // defaults in mobility/dieselnet.h are full scale
  return config;
}

DieselNetConfig bench_dieselnet_config() {
  DieselNetConfig config;
  config.fleet_size = 24;
  config.min_buses_per_day = 12;
  config.max_buses_per_day = 14;
  config.day_duration = 4.0 * kSecondsPerHour;
  config.num_routes = 4;
  config.same_route_rate = 1.5;
  config.adjacent_route_rate = 0.25;
  config.hub_rate = 0.05;
  config.mean_opportunity = 192_KB;
  config.opportunity_cv = 1.0;
  return config;
}

ScenarioConfig make_trace_scenario() {
  ScenarioConfig config;
  config.mobility = MobilityKind::kTrace;
  config.dieselnet = bench_dieselnet_config();
  config.days = 6;
  config.deadline = 2.7 * kSecondsPerHour;  // Table 4
  config.buffer_capacity = 40_GB;           // Table 4 (effectively unlimited)
  return config;
}

ScenarioConfig make_full_trace_scenario() {
  ScenarioConfig config = make_trace_scenario();
  config.dieselnet = full_dieselnet_config();
  config.days = 3;
  return config;
}

ScenarioConfig make_exponential_scenario() {
  ScenarioConfig config;
  config.mobility = MobilityKind::kExponential;
  config.deadline = 20.0;            // Table 4
  config.buffer_capacity = 100_KB;   // Table 4
  config.synthetic_runs = 3;
  // Reduced from Table 4's 20 nodes / 15 min so every synthetic figure
  // regenerates in seconds; proportions (deadline, buffer, opportunity,
  // load definition) are unchanged. See EXPERIMENTS.md.
  config.exponential.num_nodes = 16;
  config.exponential.duration = 450.0;
  config.powerlaw.num_nodes = 16;
  config.powerlaw.duration = 450.0;
  return config;
}

ScenarioConfig make_powerlaw_scenario() {
  ScenarioConfig config = make_exponential_scenario();
  config.mobility = MobilityKind::kPowerlaw;
  return config;
}

ScenarioConfig make_vehicular_grid_scenario() {
  ScenarioConfig config;
  config.mobility = MobilityKind::kVehicularGrid;
  config.synthetic_runs = 3;
  config.deadline = 0.25 * kSecondsPerHour;
  config.buffer_capacity = 4_MB;
  return config;  // VehicularGridConfig defaults: 36 vehicles, 6x6 grid, 0.5 h
}

ScenarioConfig make_working_day_scenario() {
  ScenarioConfig config;
  config.mobility = MobilityKind::kWorkingDay;
  config.synthetic_runs = 3;
  config.deadline = 600.0;
  config.buffer_capacity = 2_MB;
  return config;  // WorkingDayConfig defaults: 48 nodes, two 900 s days
}

namespace {

// The per-run bounds and RAPID priors of the synthetic (non-trace) kinds.
struct SyntheticTraits {
  int num_nodes = 0;
  Time duration = 0;
  Bytes mean_opportunity = 0;
};

SyntheticTraits synthetic_traits(const ScenarioConfig& config) {
  switch (config.mobility) {
    case MobilityKind::kExponential:
      return {config.exponential.num_nodes, config.exponential.duration,
              config.exponential.mean_opportunity};
    case MobilityKind::kPowerlaw:
      return {config.powerlaw.num_nodes, config.powerlaw.duration,
              config.powerlaw.mean_opportunity};
    case MobilityKind::kVehicularGrid: {
      // Expected contact size: bandwidth over roughly half a dwell overlap.
      const double overlap =
          std::min(config.vehicular.mean_dwell * 0.5, config.vehicular.max_contact);
      return {config.vehicular.num_vehicles, config.vehicular.duration,
              static_cast<Bytes>(
                  static_cast<double>(config.vehicular.bandwidth_per_second) * overlap)};
    }
    case MobilityKind::kWorkingDay:
      return {config.working_day.num_nodes, config.working_day.duration,
              config.working_day.mean_opportunity};
    case MobilityKind::kTrace:
      break;
  }
  throw std::logic_error("synthetic_traits: trace scenarios have per-day traits");
}

}  // namespace

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  if (config_.mobility == MobilityKind::kTrace) {
    Rng rng(config_.seed);
    trace_ = generate_dieselnet_trace(config_.dieselnet, config_.days, rng);
  }
}

int Scenario::runs() const {
  return config_.mobility == MobilityKind::kTrace ? config_.days : config_.synthetic_runs;
}

std::unique_ptr<MobilityModel> Scenario::model(int run) const {
  if (run < 0 || run >= runs()) throw std::out_of_range("Scenario::model: bad run");
  if (config_.mobility == MobilityKind::kTrace)
    return make_replay_model(trace_.days[static_cast<std::size_t>(run)].schedule);

  const Rng rng = Rng(config_.seed).split("mobility", static_cast<std::uint64_t>(run));
  switch (config_.mobility) {
    case MobilityKind::kExponential:
      return make_exponential_model(config_.exponential, rng);
    case MobilityKind::kPowerlaw:
      return make_powerlaw_model(config_.powerlaw, rng);
    case MobilityKind::kVehicularGrid:
      return make_vehicular_grid_model(config_.vehicular, rng);
    case MobilityKind::kWorkingDay:
      return make_working_day_model(config_.working_day, rng);
    case MobilityKind::kTrace:
      break;
  }
  throw std::logic_error("Scenario::model: unknown mobility kind");
}

MeetingSchedule Scenario::synthetic_schedule(int run) const {
  const std::unique_ptr<MobilityModel> m = model(run);
  return materialize(*m);
}

Instance Scenario::instance(int run, double load) const {
  if (run < 0 || run >= runs()) throw std::out_of_range("Scenario::instance: bad run");
  Instance inst;

  WorkloadConfig wl;
  wl.packet_size = config_.packet_size;
  wl.deadline = config_.deadline;
  wl.urgent_deadline = config_.urgent_deadline;
  wl.urgent_fraction = config_.urgent_fraction;

  if (config_.mobility == MobilityKind::kTrace) {
    const DayTrace& day = trace_.days[static_cast<std::size_t>(run)];
    inst.num_nodes = day.schedule.num_nodes;
    inst.duration = day.schedule.duration;
    inst.active_nodes = day.active_buses;
    // Trace load: packets per hour per source-destination pair (§5.1).
    wl.packets_per_period_per_pair = load;
    wl.load_period = kSecondsPerHour;
    wl.duration = day.schedule.duration;
    if (config_.stream_mobility) {
      // Replay streams from a cursor over the recorded day — no copy.
      inst.make_model = [&day] { return make_replay_model(day.schedule); };
    } else {
      inst.schedule = day.schedule;
    }
  } else {
    const SyntheticTraits traits = synthetic_traits(config_);
    inst.num_nodes = traits.num_nodes;
    inst.duration = traits.duration;
    inst.active_nodes.resize(static_cast<std::size_t>(traits.num_nodes));
    for (int n = 0; n < traits.num_nodes; ++n)
      inst.active_nodes[static_cast<std::size_t>(n)] = n;
    // Synthetic load: packets per 50 s per destination, split across the
    // n-1 possible sources (Table 4's "packet generation rate 50 sec mean").
    wl.packets_per_period_per_pair = load / static_cast<double>(traits.num_nodes - 1);
    wl.load_period = 50.0;
    wl.duration = traits.duration;
    if (config_.stream_mobility) {
      inst.make_model = [this, run] { return model(run); };
    } else {
      inst.schedule = synthetic_schedule(run);
    }
  }

  Rng rng = Rng(config_.seed)
                .split("workload-run", static_cast<std::uint64_t>(run))
                .split("load", static_cast<std::uint64_t>(load * 1000.0));
  inst.workload = generate_workload(wl, inst.active_nodes, rng);
  inst.link_seed =
      Rng(config_.seed).split("link", static_cast<std::uint64_t>(run)).next_u64();
  inst.fault_seed =
      Rng(config_.seed).split("fault", static_cast<std::uint64_t>(run)).next_u64();
  return inst;
}

ProtocolParams Scenario::protocol_params() const {
  ProtocolParams params;
  if (config_.mobility == MobilityKind::kTrace) {
    params.rapid_prior_meeting_time = config_.dieselnet.day_duration;
    params.rapid_prior_opportunity = config_.dieselnet.mean_opportunity;
    params.rapid_delay_cap = 2.0 * config_.dieselnet.day_duration;
    params.prophet_aging_unit = 60.0;
  } else {
    const SyntheticTraits traits = synthetic_traits(config_);
    params.rapid_prior_meeting_time = traits.duration;
    params.rapid_prior_opportunity = traits.mean_opportunity;
    params.rapid_delay_cap = 2.0 * traits.duration;
    // The hour-scale community/vehicular models age PRoPHET like the trace;
    // the second-scale Table 4 models keep the fast synthetic unit.
    params.prophet_aging_unit =
        (config_.mobility == MobilityKind::kVehicularGrid ||
         config_.mobility == MobilityKind::kWorkingDay)
            ? 60.0
            : 10.0;
  }
  return params;
}

SimResult run_instance(const Scenario& scenario, const Instance& instance,
                       const RunSpec& spec) {
  ProtocolParams params = scenario.protocol_params();
  params.metric = spec.metric;

  const Bytes buffer = spec.buffer_override != -2 ? spec.buffer_override
                                                  : scenario.config().buffer_capacity;
  const RouterFactory factory = make_protocol_factory(spec.protocol, params, buffer);

  SimConfig sim;
  sim.contact.metadata_cap_fraction = spec.metadata_cap_fraction;
  sim.contact.charge_metadata = true;
  sim.contact.link = scenario.config().link;
  sim.contact.link.seed ^= instance.link_seed;  // per-run interruption stream
  sim.contact.fault = scenario.config().link_fault;
  sim.node_faults = scenario.config().node_faults;
  if (sim.contact.fault.enabled() || sim.node_faults.enabled()) {
    // Per-run fault streams: different runs crash different nodes and
    // corrupt different copies, like the interruption stream above.
    sim.contact.fault.seed ^= instance.fault_seed;
    sim.node_faults.seed ^= instance.fault_seed;
  }
  sim.obs = spec.obs;
  if (instance.make_model)
    return run_simulation(instance.make_model(), instance.workload, factory, sim);
  return run_simulation(instance.schedule, instance.workload, factory, sim);
}

Series sweep_load(const Scenario& scenario, const std::vector<double>& loads,
                  const RunSpec& spec) {
  return runner::SweepExecutor(1).load_sweep(scenario, loads, {spec})[0];
}

Series sweep_buffer(const Scenario& scenario, double load, const std::vector<Bytes>& buffers,
                    const RunSpec& spec) {
  return runner::SweepExecutor(1).buffer_sweep(scenario, load, buffers, {spec})[0];
}

namespace {
constexpr double kNoSignal = std::numeric_limits<double>::quiet_NaN();
}

double extract_avg_delay(const SimResult& r) {
  return r.delivered > 0 ? r.avg_delay : kNoSignal;
}
double extract_avg_delay_with_undelivered(const SimResult& r) {
  return r.total_packets > 0 ? r.avg_delay_with_undelivered : kNoSignal;
}
double extract_max_delay(const SimResult& r) {
  return r.delivered > 0 ? r.max_delay : kNoSignal;
}
double extract_delivery_rate(const SimResult& r) {
  return r.total_packets > 0 ? r.delivery_rate : kNoSignal;
}
double extract_deadline_rate(const SimResult& r) {
  return r.total_packets > 0 ? r.deadline_rate : kNoSignal;
}
double extract_metadata_over_data(const SimResult& r) {
  return r.data_bytes > 0 ? r.metadata_over_data : kNoSignal;
}
double extract_metadata_over_capacity(const SimResult& r) {
  return r.capacity_bytes > 0 ? r.metadata_over_capacity : kNoSignal;
}
double extract_channel_utilization(const SimResult& r) {
  return r.capacity_bytes > 0 ? r.channel_utilization : kNoSignal;
}

Summary summarize_cell(const std::vector<SimResult>& cell, MetricExtractor extract) {
  std::vector<double> values;
  values.reserve(cell.size());
  for (const SimResult& r : cell) {
    const double v = extract(r);
    if (std::isfinite(v)) values.push_back(v);
  }
  return summarize(values);
}

}  // namespace rapid
