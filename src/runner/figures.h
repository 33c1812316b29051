// Declarative figure catalog: every paper figure/table the benches reproduce
// is one FigureDef entry — scenario name (resolved through the scenario
// registry), protocol series, metric extractor, axes — executed by the
// shared runner instead of per-bench loops. `rapid_bench --figure <id>`
// runs one entry through run_figure().
//
// Common flags (rapid_bench --figure):
//   --threads=N     sweep cells in parallel (bit-identical to --threads=1)
//   --scenario=NAME override the figure's registry scenario
//   --days=N/--runs=N  trace days or synthetic seeds per point
//   --loads=a,b,c   override the x axis (load sweeps)
//   --buffers-kb=a,b,c  override the x axis (buffer sweeps)
//   --quick         trimmed sweeps for smoke runs
//   --csv=PATH / --json=PATH  mirror the printed table to a file
//   --raw-csv=PATH  per-run values of sweep figures (full distribution)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runner/result_store.h"
#include "runner/scenario_registry.h"
#include "runner/sweep_executor.h"
#include "util/strings.h"

namespace rapid::runner {

struct ProtocolSeries {
  ProtocolKind protocol;
  RoutingMetric metric;
};

enum class SweepAxis { kLoad, kBuffer, kCustom };

struct FigureDef {
  std::string id;       // catalog key: "4" .. "24", "table3"
  std::string title;    // paper caption summary
  std::string x_label;
  std::string y_label;
  SweepAxis axis = SweepAxis::kLoad;
  std::string scenario;  // ScenarioRegistry name
  std::vector<ProtocolSeries> series;
  MetricExtractor extract = nullptr;
  double scale = 1.0;
  // Figures that are not a plain protocol sweep (3, 8, 9, 13, 15, table3)
  // provide their whole body here instead.
  std::function<void(const FigureDef&, const Options&, SweepExecutor&)> custom;
};

const std::vector<FigureDef>& figure_catalog();
// Accepts "4", "fig4", or "table3" (case-insensitive); null when unknown.
const FigureDef* find_figure(const std::string& id);

// Option plumbing shared by declarative and custom figures.
int thread_count(const Options& options);
// Resolves --scenario (default: the figure's scenario) through the registry
// and applies --days / --runs / --quick run-count overrides.
ScenarioConfig scenario_for(const FigureDef& fig, const Options& options);
std::vector<double> default_loads(const ScenarioConfig& config, const Options& options);
// The --loads override parsed as a list, or `fallback` when absent; lets
// custom figures with their own load axes still honor the documented flag.
std::vector<double> loads_or(const Options& options, std::vector<double> fallback);
std::vector<Bytes> default_buffers(const Options& options);
void print_figure_banner(const FigureDef& fig);
// Honors --csv=PATH and --json=PATH.
void export_table(const Table& table, const Options& options);

// Runs one figure end-to-end (prints the table, exports if asked);
// returns a process exit code.
int run_figure(const FigureDef& fig, const Options& options);
// Entry point for the unified CLI: --figure/--all/--list/--list-scenarios.
int rapid_bench_main(int argc, char** argv);

namespace detail {
void run_fig3_validation(const FigureDef&, const Options&, SweepExecutor&);
void run_fig8_metadata_cap(const FigureDef&, const Options&, SweepExecutor&);
void run_fig9_channel_utilization(const FigureDef&, const Options&, SweepExecutor&);
void run_fig13_optimal(const FigureDef&, const Options&, SweepExecutor&);
void run_fig15_fairness(const FigureDef&, const Options&, SweepExecutor&);
void run_table3_deployment(const FigureDef&, const Options&, SweepExecutor&);
void run_fault_sweep(const FigureDef&, const Options&, SweepExecutor&);
}  // namespace detail

}  // namespace rapid::runner
