#include "dtn/workload.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace rapid {
namespace {

void check_config(const WorkloadConfig& config) {
  if (config.packet_size <= 0) throw std::invalid_argument("workload: packet_size <= 0");
  if (config.duration <= 0) throw std::invalid_argument("workload: duration <= 0");
  if (config.load_period <= 0) throw std::invalid_argument("workload: load_period <= 0");
  if (config.packets_per_period_per_pair < 0)
    throw std::invalid_argument("workload: negative load");
  if (config.urgent_fraction < 0.0 || config.urgent_fraction > 1.0)
    throw std::invalid_argument("workload: urgent_fraction out of [0,1]");
}

PacketPool finalize(std::vector<Packet> packets) {
  std::stable_sort(packets.begin(), packets.end(),
                   [](const Packet& a, const Packet& b) { return a.created < b.created; });
  PacketPool pool;
  for (Packet& p : packets) pool.add(p);
  return pool;
}

}  // namespace

PacketPool generate_workload(const WorkloadConfig& config,
                             const std::vector<NodeId>& active_nodes, Rng& rng) {
  check_config(config);
  std::vector<Packet> packets;
  if (config.packets_per_period_per_pair > 0) {
    const double mean_gap = config.load_period / config.packets_per_period_per_pair;
    for (NodeId src : active_nodes) {
      for (NodeId dst : active_nodes) {
        if (src == dst) continue;
        Rng stream = rng.split("workload-pair",
                               static_cast<std::uint64_t>(src) * 100003 +
                                   static_cast<std::uint64_t>(dst));
        // Separate stream so mixed-deadline scenarios keep the exact arrival
        // process of their base scenario. Split only when some packets are
        // urgent: a 2000-node fleet has ~4M pairs.
        std::optional<Rng> urgent_stream;
        if (config.urgent_fraction > 0) urgent_stream.emplace(stream.split("urgent"));
        Time t = stream.exponential_mean(mean_gap);
        while (t < config.duration) {
          Packet p;
          p.src = src;
          p.dst = dst;
          p.size = config.packet_size;
          p.created = t;
          Time relative = config.deadline;
          if (urgent_stream && urgent_stream->bernoulli(config.urgent_fraction))
            relative = config.urgent_deadline;
          p.deadline = relative == kTimeInfinity ? kTimeInfinity : t + relative;
          packets.push_back(p);
          t += stream.exponential_mean(mean_gap);
        }
      }
    }
  }
  return finalize(std::move(packets));
}

PacketPool generate_workload(const WorkloadConfig& config, int num_nodes, Rng& rng) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) nodes[static_cast<std::size_t>(i)] = i;
  return generate_workload(config, nodes, rng);
}

PacketPool generate_parallel_cohorts(const ParallelCohortConfig& config,
                                     const std::vector<NodeId>& active_nodes, Rng& rng,
                                     std::vector<std::vector<PacketId>>* cohorts_out) {
  check_config(config.base);
  if (active_nodes.size() < 2)
    throw std::invalid_argument("parallel cohorts: need at least two nodes");

  // Base load first (so cohort packets compete for resources, as in §6.2.5).
  PacketPool base = generate_workload(config.base, active_nodes, rng);
  std::vector<Packet> packets(base.all());

  struct CohortStub {
    Time at;
    std::vector<std::size_t> indexes;  // into `packets`
  };
  std::vector<CohortStub> stubs;

  Rng stream = rng.split("cohorts");
  Time at = config.first_cohort_at;
  while (at < config.base.duration) {
    CohortStub stub;
    stub.at = at;
    const NodeId src = active_nodes[static_cast<std::size_t>(
        stream.uniform_int(0, static_cast<std::int64_t>(active_nodes.size()) - 1))];
    int made = 0;
    std::size_t cursor = 0;
    while (made < config.cohort_size) {
      const NodeId dst = active_nodes[cursor % active_nodes.size()];
      ++cursor;
      if (dst == src) continue;
      Packet p;
      p.src = src;
      p.dst = dst;
      p.size = config.base.packet_size;
      p.created = at;
      p.deadline = config.base.deadline == kTimeInfinity ? kTimeInfinity
                                                         : at + config.base.deadline;
      stub.indexes.push_back(packets.size());
      packets.push_back(p);
      ++made;
      if (cursor > 4 * static_cast<std::size_t>(config.cohort_size) + active_nodes.size()) break;
    }
    stubs.push_back(std::move(stub));
    if (config.spacing == kTimeInfinity) break;
    at += config.spacing;
  }

  // Sort and re-id; track where each cohort packet landed.
  std::vector<std::size_t> order(packets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return packets[a].created < packets[b].created;
  });
  std::vector<PacketId> new_id(packets.size());
  PacketPool pool;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    new_id[order[rank]] = pool.add(packets[order[rank]]);
  }
  if (cohorts_out != nullptr) {
    cohorts_out->clear();
    for (const CohortStub& stub : stubs) {
      std::vector<PacketId> ids;
      ids.reserve(stub.indexes.size());
      for (std::size_t idx : stub.indexes) ids.push_back(new_id[idx]);
      cohorts_out->push_back(std::move(ids));
    }
  }
  return pool;
}

}  // namespace rapid
