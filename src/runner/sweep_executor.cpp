#include "runner/sweep_executor.h"

#include "runner/parallel_for.h"

namespace rapid::runner {
namespace {

struct Cell {
  std::size_t spec = 0;
  std::size_t x = 0;
  int run = 0;
};

// Flattens the grid, runs every cell (possibly in parallel), and scatters the
// results back into series[spec].cells[x][run].
std::vector<Series> execute_grid(int threads, const Scenario& scenario,
                                 const std::vector<double>& xs,
                                 const std::vector<RunSpec>& specs,
                                 const std::function<double(std::size_t)>& load_of_x,
                                 const std::function<RunSpec(const RunSpec&, std::size_t)>&
                                     spec_at_x) {
  const int runs = scenario.runs();
  std::vector<Series> series(specs.size());
  for (Series& s : series) {
    s.x = xs;
    s.cells.assign(xs.size(), std::vector<SimResult>(static_cast<std::size_t>(runs)));
  }

  std::vector<Cell> cells;
  cells.reserve(specs.size() * xs.size() * static_cast<std::size_t>(runs));
  for (std::size_t si = 0; si < specs.size(); ++si)
    for (std::size_t xi = 0; xi < xs.size(); ++xi)
      for (int run = 0; run < runs; ++run) cells.push_back({si, xi, run});

  parallel_for(threads, cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    const RunSpec spec = spec_at_x(specs[cell.spec], cell.x);
    const Instance inst = scenario.instance(cell.run, load_of_x(cell.x));
    series[cell.spec].cells[cell.x][static_cast<std::size_t>(cell.run)] =
        run_instance(scenario, inst, spec);
  });
  return series;
}

}  // namespace

SweepExecutor::SweepExecutor(int threads)
    : threads_(threads <= 0 ? default_thread_count() : threads) {}

std::vector<Series> SweepExecutor::load_sweep(const Scenario& scenario,
                                              const std::vector<double>& loads,
                                              const std::vector<RunSpec>& specs) {
  return execute_grid(
      threads_, scenario, loads, specs,
      [&](std::size_t xi) { return loads[xi]; },
      [](const RunSpec& spec, std::size_t) { return spec; });
}

std::vector<Series> SweepExecutor::buffer_sweep(const Scenario& scenario, double load,
                                                const std::vector<Bytes>& buffers,
                                                const std::vector<RunSpec>& specs) {
  std::vector<double> xs;
  xs.reserve(buffers.size());
  for (Bytes b : buffers) xs.push_back(static_cast<double>(b) / 1024.0);  // KB axis
  return execute_grid(
      threads_, scenario, xs, specs, [&](std::size_t) { return load; },
      [&](const RunSpec& spec, std::size_t xi) {
        RunSpec with_buffer = spec;
        with_buffer.buffer_override = buffers[xi];
        return with_buffer;
      });
}

}  // namespace rapid::runner
