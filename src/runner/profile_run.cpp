#include "runner/profile_run.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/utility.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "runner/figures.h"
#include "runner/parallel_for.h"
#include "runner/scenario_registry.h"
#include "sim/experiment.h"

namespace rapid::runner {
namespace {

// "trace.json" -> "trace-run3.json" — per-run trace paths when --runs > 1.
std::string path_for_run(const std::string& path, int run, int runs) {
  if (runs <= 1) return path;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  const bool has_ext = dot != std::string::npos &&
                       (slash == std::string::npos || dot > slash);
  const std::string tag = "-run" + std::to_string(run);
  return has_ext ? path.substr(0, dot) + tag + path.substr(dot) : path + tag;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

int run_observed_main(const Options& options) {
  try {
    const std::string scenario_name =
        options.get_string("scenario", "powerlaw-stream");
    const std::string protocol_name = options.get_string("protocol", "rapid");
    const std::optional<ProtocolKind> protocol = protocol_from_string(protocol_name);
    if (!protocol) {
      std::cerr << "unknown protocol '" << protocol_name
                << "'; known: rapid, rapid-global, rapid-local, maxprop, "
                   "spray-wait, prophet, random, random-acks, epidemic, direct\n";
      return 1;
    }

    ScenarioConfig config = ScenarioRegistry::global().make(scenario_name);
    const int runs = std::max(1, static_cast<int>(options.get_int("runs", 1)));
    if (config.mobility == MobilityKind::kTrace)
      config.days = static_cast<int>(options.get_int("days", runs));
    else
      config.synthetic_runs = runs;
    const Scenario scenario(config);

    RunSpec spec;
    spec.protocol = *protocol;
    const std::string metric_name = options.get_string("metric", "avg-delay");
    const std::optional<RoutingMetric> metric = routing_metric_from_string(metric_name);
    if (!metric) {
      std::cerr << "unknown metric '" << metric_name
                << "'; known: avg-delay, max-delay, missed-deadlines\n";
      return 1;
    }
    spec.metric = *metric;
    spec.obs.profile = options.get_bool("profile", false);
    const std::string trace_path = options.get_string("trace", "");
    const bool tracing = !trace_path.empty() && trace_path != "true";
    if (!trace_path.empty() && !tracing) {
      std::cerr << "--trace needs a path: --trace=trace.json\n";
      return 1;
    }
    if (tracing)
      spec.obs.trace_capacity =
          static_cast<std::size_t>(options.get_int("trace-capacity", 1 << 20));

    // Load semantics follow the scenario kind (see sim/experiment.h); the
    // default is the powerlaw-stream operating point of benchmark/'s
    // powerlaw-sat workload.
    const double load = options.get_double("load", 0.25);
    const int total_runs = scenario.runs();

    std::cout << "scenario " << scenario_name << " | protocol "
              << to_string(spec.protocol) << " | load " << load << " | runs "
              << total_runs << "\n";

    // Every run writes into its pre-assigned slot, so results (and with them
    // every exported artifact) are independent of thread count.
    std::vector<SimResult> results(static_cast<std::size_t>(total_runs));
    const int threads = thread_count(options);
    parallel_for(threads, results.size(), [&](std::size_t r) {
      const Instance inst = scenario.instance(static_cast<int>(r), load);
      results[r] = run_instance(scenario, inst, spec);
    });

    // Per-run summary lines (the observability dump's anchor back to the
    // figure-level quantities).
    for (int r = 0; r < total_runs; ++r) {
      const SimResult& res = results[static_cast<std::size_t>(r)];
      std::cout << "run " << r << ": packets " << res.total_packets
                << " | delivered " << res.delivered << " | avg delay "
                << res.avg_delay << " s | drops " << res.drops
                << " | meetings " << res.meetings << "\n";
    }

    // --profile: phase breakdown merged across runs.
    if (spec.obs.profile) {
      obs::PhaseProfile merged;
      for (const SimResult& res : results)
        if (res.obs != nullptr) merged.merge(res.obs->profile);
      std::cout << "\nper-phase wall-clock breakdown (" << total_runs
                << (total_runs == 1 ? " run" : " runs") << "):\n";
      obs::print_phase_table(std::cout, merged);
    }

    // --trace=PATH: Chrome trace_event JSON per run.
    if (tracing) {
      for (int r = 0; r < total_runs; ++r) {
        const SimResult& res = results[static_cast<std::size_t>(r)];
        if (res.obs == nullptr) continue;
        const std::string path = path_for_run(trace_path, r, total_runs);
        if (!write_text_file(path, obs::to_chrome_trace(res.obs->trace))) {
          std::cerr << "cannot write trace to " << path << "\n";
          return 1;
        }
        std::cout << "trace: " << res.obs->trace.size() << " events ("
                  << res.obs->trace_dropped << " dropped) -> " << path << "\n";
      }
    }

    // --metrics=PATH: per-run registry snapshots, stable key order.
    const std::string metrics_path = options.get_string("metrics", "");
    if (!metrics_path.empty() && metrics_path != "true") {
      std::string json = "{\n";
      json += "  \"scenario\": \"" + scenario_name + "\",\n";
      json += "  \"protocol\": \"" + to_string(spec.protocol) + "\",\n";
      json += "  \"load\": " + std::to_string(load) + ",\n";
      json += "  \"threads\": " + std::to_string(threads) + ",\n";
      json += "  \"runs\": [\n";
      for (int r = 0; r < total_runs; ++r) {
        const SimResult& res = results[static_cast<std::size_t>(r)];
        json += "    ";
        json += res.obs != nullptr ? res.obs->metrics.to_json(6) : "null";
        json += r + 1 < total_runs ? ",\n" : "\n";
      }
      json += "  ]";
      if (spec.obs.profile) {
        obs::PhaseProfile merged;
        for (const SimResult& res : results)
          if (res.obs != nullptr) merged.merge(res.obs->profile);
        json += ",\n  \"phases\": " + obs::phase_table_json(merged, 4);
      }
      json += "\n}\n";
      if (!write_text_file(metrics_path, json)) {
        std::cerr << "cannot write metrics to " << metrics_path << "\n";
        return 1;
      }
      std::cout << "metrics: " << metrics_path << "\n";
    } else if (!metrics_path.empty()) {
      std::cerr << "--metrics needs a path: --metrics=metrics.json\n";
      return 1;
    }

    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rapid::runner
