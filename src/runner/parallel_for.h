// Index-claiming parallel loop for the sweep executor and observed runs.
//
// Every caller's iterations are independent simulations that write into
// pre-assigned slots, so the loop only spreads indices over threads: each
// thread claims the next unclaimed index from one atomic counter. Claiming
// dynamically keeps every core busy when cell costs are uneven (an ILP cell
// next to a Direct cell), and completion order never affects results.
#pragma once

#include <cstddef>
#include <functional>

namespace rapid::runner {

// std::thread::hardware_concurrency(), or 1 when it is unknown.
int default_thread_count();

// Runs body(i) once for every i in [0, n) on min(threads, n) threads, the
// calling thread included. threads <= 1 runs serially in index order on the
// calling thread. The first exception a body throws stops further claims and
// is rethrown on the caller once every thread has joined.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace rapid::runner
