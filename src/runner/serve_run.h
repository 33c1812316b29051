// Online-service driver: the `rapid_bench serve` mode. Wraps a ServiceEngine
// around a (possibly still-growing) contact trace file: contacts are tailed
// in incrementally, a query script is answered mid-stream at its requested
// times, and the engine state can be checkpointed periodically and restored
// into a bit-identical continuation.
#pragma once

#include "util/strings.h"

namespace rapid::runner {

// Flags (all --key=value; `serve` itself is a bare token):
//   --trace=PATH          rapid-trace v1 contact file to tail (required); the
//                         first day block is the live feed
//   --follow              keep polling for appended lines until `end` arrives
//                         (without it, the file is read as complete, and one
//                         without an `end` line is refused)
//   --queries=PATH        query script: lines `at <time> delay|utility|replicas <id>`
//                         or `at <time> stats`, times non-decreasing
//   --snapshot-every=T    checkpoint every T simulated seconds
//   --snapshot-dir=DIR    where periodic checkpoints go (default ".")
//   --restore=PATH        resume from a checkpoint instead of starting fresh
//   --final-state=PATH    write one last checkpoint after the final advance
//   --protocol=NAME       rapid | maxprop | spray-wait | ... (default rapid)
//   --metric=NAME         avg-delay | max-delay | missed-deadlines
//   --load=F              workload packets/hour/pair (default 1)
//   --packet-kb=N         workload packet size (default 1)
//   --deadline=T          relative per-packet deadline in seconds (default none)
//   --buffer-kb=N         per-node buffer capacity (default unbounded)
//   --seed=N              workload RNG seed (default 1)
// The workload is derived deterministically from the trace's day header and
// these flags, so a restore under the same flags reattaches exactly.
// Returns a process exit code.
int run_serve_main(const Options& options);

}  // namespace rapid::runner
