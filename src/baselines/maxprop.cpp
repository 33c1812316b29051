#include "baselines/maxprop.h"

#include <algorithm>

#include "util/slab.h"
#include <limits>
#include <queue>

#include "core/metadata.h"  // wire-size constants
#include "util/binio.h"

namespace rapid {

MaxPropRouter::MaxPropRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                             const MaxPropConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {
  const auto n = static_cast<std::size_t>(ctx->num_nodes);
  const double uniform = n > 1 ? 1.0 / static_cast<double>(n - 1) : 0.0;
  f_.assign(n, std::vector<double>(n, uniform));
  for (std::size_t u = 0; u < n; ++u) f_[u][u] = 0.0;
  f_stamp_.assign(n, -kTimeInfinity);
}

void MaxPropRouter::set_hops(PacketId id, int hops) {
  grow_slot(hops_, id, std::int32_t{0}) = hops;
}

bool MaxPropRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  set_hops(p.id, 0);
  priority_dirty_ = true;
  return true;
}

void MaxPropRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t aux,
                              Time /*now*/) {
  set_hops(p.id, static_cast<int>(std::max<std::int64_t>(0, aux)));
  priority_dirty_ = true;
}

void MaxPropRouter::on_dropped(const Packet& p, Time /*now*/) {
  set_hops(p.id, 0);
  priority_dirty_ = true;
}

void MaxPropRouter::on_acked(const Packet& p, Time /*now*/) {
  set_hops(p.id, 0);
  priority_dirty_ = true;
}

int MaxPropRouter::hop_count(PacketId id) const {
  return static_cast<std::size_t>(id) < hops_.size()
             ? hops_[static_cast<std::size_t>(id)]
             : 0;
}

void MaxPropRouter::observe_opportunity(Bytes capacity, NodeId /*peer*/, Time /*now*/) {
  ++transfers_seen_;
  avg_transfer_bytes_ +=
      (static_cast<double>(capacity) - avg_transfer_bytes_) / static_cast<double>(transfers_seen_);
  priority_dirty_ = true;  // head-start threshold moved
}

void MaxPropRouter::normalize_own() {
  auto& own = f_[static_cast<std::size_t>(self())];
  double total = 0;
  for (double v : own) total += v;
  if (total <= 0) return;
  for (double& v : own) v /= total;
}

double MaxPropRouter::meeting_likelihood(NodeId peer) const {
  return f_[static_cast<std::size_t>(self())][static_cast<std::size_t>(peer)];
}

Bytes MaxPropRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);

  // Incremental averaging: bump the peer's likelihood, re-normalize.
  f_[static_cast<std::size_t>(self())][static_cast<std::size_t>(peer.self())] += 1.0;
  normalize_own();
  f_stamp_[static_cast<std::size_t>(self())] = now;
  costs_dirty_ = true;
  priority_dirty_ = true;

  Bytes used = 0;
  auto* mp = peer.as<MaxPropRouter>();
  if (mp != nullptr) {
    // Ship every vector the peer has staler knowledge of (route messages).
    for (std::size_t u = 0; u < f_.size(); ++u) {
      if (f_stamp_[u] <= mp->f_stamp_[u]) continue;
      const Bytes cost =
          kMeetingRowHeaderBytes + kMeetingRowEntryBytes * static_cast<Bytes>(f_.size());
      if (used + cost > meta_budget) break;
      used += cost;
      mp->f_[u] = f_[u];
      mp->f_stamp_[u] = f_stamp_[u];
      mp->costs_dirty_ = true;
      mp->priority_dirty_ = true;
    }
  }
  // Flooded delivery acknowledgments.
  used += exchange_acks(peer, now);
  return std::min(used, meta_budget);
}

void MaxPropRouter::recompute_costs() const {
  const auto n = f_.size();
  cost_cache_.assign(n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto src = static_cast<std::size_t>(self());
  cost_cache_[src] = 0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > cost_cache_[u]) continue;
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u) continue;
      const double w = 1.0 - std::min(1.0, std::max(0.0, f_[u][v]));
      const double cand = dist + w;
      if (cand < cost_cache_[v]) {
        cost_cache_[v] = cand;
        heap.emplace(cand, v);
      }
    }
  }
  costs_dirty_ = false;
}

double MaxPropRouter::path_cost(NodeId dst) const {
  if (costs_dirty_) recompute_costs();
  return cost_cache_[static_cast<std::size_t>(dst)];
}

Bytes MaxPropRouter::head_start_bytes() const {
  const double avg = avg_transfer_bytes_;
  if (buffer().capacity() < 0) return static_cast<Bytes>(avg);
  return std::min(static_cast<Bytes>(avg),
                  static_cast<Bytes>(config_.head_start_buffer_fraction *
                                     static_cast<double>(buffer().capacity())));
}

const std::vector<PacketId>& MaxPropRouter::priority_order() const {
  if (!priority_dirty_) return priority_cache_;
  struct Entry {
    PacketId id;
    int hops;
    double cost;
    Bytes size;
  };
  std::vector<Entry> entries;
  entries.reserve(buffer().count());
  buffer().for_each([&](PacketId id, Bytes size) {
    const Packet& p = ctx().packet(id);
    entries.push_back(Entry{id, hop_count(id), path_cost(p.dst), size});
  });
  // Hopcount section first (ascending), then everything by cost (ascending).
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.hops != b.hops) return a.hops < b.hops;
    return a.cost < b.cost;
  });
  const Bytes head = head_start_bytes();
  Bytes acc = 0;
  std::size_t split = 0;
  while (split < entries.size() && acc + entries[split].size <= head) {
    acc += entries[split].size;
    ++split;
  }
  std::sort(entries.begin() + static_cast<std::ptrdiff_t>(split), entries.end(),
            [](const Entry& a, const Entry& b) { return a.cost < b.cost; });
  priority_cache_.clear();
  priority_cache_.reserve(entries.size());
  for (const Entry& e : entries) priority_cache_.push_back(e.id);
  priority_dirty_ = false;
  return priority_cache_;
}

void MaxPropRouter::build_plan(const ContactContext& /*contact*/, const PeerView& peer) {
  std::vector<PacketId>& direct = plan().direct;
  for (PacketId id : priority_order())
    (ctx().packet(id).dst == peer.self() ? direct : plan().replicate).push_back(id);
  // Destined-to-peer packets go first regardless of section, oldest first.
  std::sort(direct.begin(), direct.end(), [&](PacketId a, PacketId b) {
    return ctx().packet(a).created < ctx().packet(b).created;
  });
}

std::int64_t MaxPropRouter::transfer_aux(const Packet& p, const PeerView& /*peer*/) {
  return hop_count(p.id) + 1;
}

void MaxPropRouter::on_transfer_success(const Packet& p, const PeerView& /*peer*/,
                                        ReceiveOutcome outcome, Time now) {
  if (outcome == ReceiveOutcome::kDelivered || outcome == ReceiveOutcome::kDuplicateDelivery)
    learn_ack(p.id, now);
}

PacketId MaxPropRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  // Drop from the tail of the priority order: the highest-cost packet
  // outside the head-start section goes first.
  const std::vector<PacketId>& order = priority_order();
  if (order.empty()) return kNoPacket;
  return order.back();
}

void MaxPropRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("MAXP");
  out.u64(f_.size());
  for (std::size_t u = 0; u < f_.size(); ++u) {
    for (double v : f_[u]) out.f64(v);
    out.f64(f_stamp_[u]);
  }
  std::uint64_t tracked = 0;
  for (std::int32_t h : hops_) tracked += h != 0 ? 1 : 0;
  out.u64(tracked);
  for (std::size_t id = 0; id < hops_.size(); ++id) {
    if (hops_[id] == 0) continue;
    out.i64(static_cast<std::int64_t>(id));
    out.i64(hops_[id]);
  }
  out.f64(avg_transfer_bytes_);
  out.u64(transfers_seen_);
}

void MaxPropRouter::load_state(BinReader& in) {
  Router::load_state(in);
  in.expect_tag("MAXP");
  if (in.u64() != f_.size()) BinReader::fail("maxprop fleet size differs from the snapshot's");
  for (std::size_t u = 0; u < f_.size(); ++u) {
    for (double& v : f_[u]) v = in.f64();
    f_stamp_[u] = in.f64();
  }
  const std::uint64_t tracked = in.u64();
  for (std::uint64_t i = 0; i < tracked; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    set_hops(id, static_cast<int>(in.i64()));
  }
  avg_transfer_bytes_ = in.f64();
  transfers_seen_ = in.u64();
  costs_dirty_ = true;
  priority_dirty_ = true;
}

RouterFactory make_maxprop_factory(const MaxPropConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<MaxPropRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
