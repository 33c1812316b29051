// Parallel sweep execution: fans the (protocol × x-value × run) cells of a
// sweep grid out across threads with runner::parallel_for.
//
// Every cell derives all of its randomness from the scenario seed via
// Rng::split (mobility, workload, and router state are rebuilt per cell), so
// the grid is embarrassingly parallel and the results are bit-identical to a
// serial sweep regardless of thread count or completion order — cells write
// into pre-sized slots indexed by (spec, x, run).
#pragma once

#include <vector>

#include "sim/experiment.h"

namespace rapid::runner {

class SweepExecutor {
 public:
  // threads == 1 executes serially on the calling thread;
  // threads <= 0 uses default_thread_count().
  explicit SweepExecutor(int threads = 1);

  // Load sweep; x is the load, one Series per spec.
  std::vector<Series> load_sweep(const Scenario& scenario,
                                 const std::vector<double>& loads,
                                 const std::vector<RunSpec>& specs);

  // Buffer sweep at a fixed load; x is the buffer size in KB, one Series per
  // spec (each spec's buffer_override is replaced by the swept value).
  std::vector<Series> buffer_sweep(const Scenario& scenario, double load,
                                   const std::vector<Bytes>& buffers,
                                   const std::vector<RunSpec>& specs);

 private:
  int threads_;
};

}  // namespace rapid::runner
