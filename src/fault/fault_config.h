// Fault-injection configuration: the knobs that turn perfect nodes and
// lossless links into failing ones (ROADMAP item 4(b); ISSUE 9).
//
// Two independent fault families, both pure functions of config + seed:
//
//   * NodeFaultConfig — node crash/recover processes. Each node alternates
//     exponential uptime and downtime phases drawn from its own seeded
//     stream (fault/fault_model.h merges the per-node streams into one
//     time-ordered EventSource). A crashed node misses its contacts and
//     generates nothing; on crash its in-transit buffer is dropped or
//     preserved per `drop_buffers`; on recovery it rejoins with whatever
//     routing state survived — estimates go stale and re-converge, exactly
//     like a real reboot.
//
//   * LinkFaultConfig — per-contact link faults honored by run_contact:
//     byte-level copy corruption with a loss probability drawn from a
//     per-pair process (some radio pairs are persistently worse), and
//     metadata-channel degradation (a degraded contact keeps only a
//     fraction of its metadata budget, so routing views desynchronize).
//
// This header is dependency-free so both dtn/ (run_contact) and sim/
// (Simulation) can embed the configs without a layering cycle; the event
// machinery that needs the simulation lives in fault/fault_model.h.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace rapid {

// One node crash (up = false) or recovery (up = true). Defined here, beside
// the configs, so sim/simulation.h can carry it on SimEvent without
// depending on the fault machinery.
struct FaultEvent {
  Time time = 0;
  NodeId node = kNoNode;
  bool up = false;
};

// Node crash/recover process. Disabled by default (both means zero).
struct NodeFaultConfig {
  // Mean exponential uptime before a crash / downtime before recovery, in
  // simulation seconds. Both must be > 0 to enable the process.
  double mean_uptime = 0.0;
  double mean_downtime = 0.0;
  // Crash policy: true models diskless nodes (the in-transit buffer is lost,
  // drops accounted through the normal drop path); false models a power
  // cycle with persistent storage (buffers survive, only connectivity and
  // freshness are lost).
  bool drop_buffers = true;
  // Seed of the per-node crash/recover streams (split by node id, so fault
  // schedules are independent of fleet iteration order and thread count).
  std::uint64_t seed = 0xFA11;

  bool enabled() const { return mean_uptime > 0.0 && mean_downtime > 0.0; }
};

// Per-contact link faults. Disabled by default (both rates zero).
struct LinkFaultConfig {
  // Base probability that a copy crossing the air is corrupted and discarded
  // by the receiver (its bytes are still charged to the channel).
  double loss_rate = 0.0;
  // Per-pair spread: each unordered node pair scales the base rate by a
  // uniform draw in [1 - spread, 1 + spread] (clamped to [0, 1] probability),
  // keyed by the pair, so some links are persistently lossier than others.
  double loss_spread = 0.0;
  // Probability that a contact's metadata channel is degraded, and the
  // fraction of the metadata budget that survives degradation.
  double meta_degrade_rate = 0.0;
  double meta_survive_fraction = 0.5;
  // Seed of the per-pair and per-meeting fault draws (split by pair id and
  // meeting index; independent of execution order and thread count).
  std::uint64_t seed = 0xFA12;

  bool enabled() const { return loss_rate > 0.0 || meta_degrade_rate > 0.0; }
};

}  // namespace rapid
