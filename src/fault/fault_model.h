// FaultModel: the deterministic node crash/recover event stream.
//
// Each node draws an alternating sequence of exponential uptime/downtime
// phases from its own sub-stream (Rng(seed).split("node-fault", node)), so a
// node's fault schedule depends only on (seed, node) — adding nodes or
// changing protocols never perturbs it. The per-node streams merge through
// a binary heap into one time-ordered sequence; ties break toward the lower
// node id, so the merged order is a pure function of the config too.
//
// make_fault_source wraps a FaultModel as a Simulation EventSource emitting
// SimEvent::Kind::kFault events. The Simulation registers it itself when
// SimConfig::node_faults is enabled (after the built-in workload/schedule
// sources, before any caller-added feed), keeps the up/down mask, suppresses
// contacts and packet generation at down nodes, and applies the crash policy
// through Router::on_crash.
//
// Snapshot note: like every deterministic source, a FaultModel is not
// serialized — the restoring side reconstructs it from the same config and
// fast-forwards past the cutoff (FaultModel::peek times are non-decreasing,
// which is all fast_forward_sources needs).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_config.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/types.h"

namespace rapid {

// The merged, time-ordered crash/recover stream for a fleet. Lazy: each
// node's next transition is materialized on demand, so memory is O(nodes)
// regardless of how many faults the horizon spans.
class FaultModel {
 public:
  // Requires config.enabled(); throws std::invalid_argument otherwise.
  FaultModel(const NodeFaultConfig& config, int num_nodes);

  // Next event, stable until pop(); nullptr never happens (the process is
  // unbounded) but the Simulation's horizon clips it like any source.
  const FaultEvent& peek() const { return heap_.front().event; }
  void pop();

 private:
  struct NodeStream {
    FaultEvent event;
    Rng rng;
    // Ordering for the min-heap: earliest time first, lower node on ties.
    bool operator<(const NodeStream& other) const {
      if (event.time != other.event.time) return event.time > other.event.time;
      return event.node > other.event.node;
    }
  };

  NodeFaultConfig config_;
  std::vector<NodeStream> heap_;
};

// Wraps the model (constructed from `config`) as a kFault EventSource.
std::unique_ptr<EventSource> make_fault_source(const NodeFaultConfig& config,
                                               int num_nodes);

}  // namespace rapid
