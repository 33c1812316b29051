#include "core/meeting_matrix.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/binio.h"

namespace rapid {

namespace {

// Ordering for column-sorted (column, value) lists.
bool column_less(const std::pair<NodeId, Time>& entry, NodeId column) {
  return entry.first < column;
}

}  // namespace

MeetingMatrix::MeetingMatrix(NodeId owner, int num_nodes, int max_hops)
    : owner_(owner), num_nodes_(num_nodes), max_hops_(max_hops) {
  if (owner < 0 || owner >= num_nodes)
    throw std::invalid_argument("MeetingMatrix: owner out of range");
  if (max_hops < 1) throw std::invalid_argument("MeetingMatrix: max_hops < 1");
  rows_.resize(static_cast<std::size_t>(num_nodes));  // versions materialize lazily
  stamps_.assign(static_cast<std::size_t>(num_nodes), -kTimeInfinity);
}

void MeetingMatrix::observe_meeting(NodeId peer, Time now) {
  if (peer < 0 || peer >= num_nodes_ || peer == owner_)
    throw std::invalid_argument("MeetingMatrix::observe_meeting: bad peer");
  auto stat = std::lower_bound(peers_.begin(), peers_.end(), peer,
                               [](const PeerStat& s, NodeId p) { return s.peer < p; });
  if (stat == peers_.end() || stat->peer != peer) stat = peers_.insert(stat, PeerStat{peer});
  const Time gap = now - stat->last_met;  // first gap measured from time 0

  // Own-row versions are immutable once gossiped: clone before editing when
  // anyone else holds the current version (the gossiped copy stays valid
  // wherever it travelled). A version nobody adopted yet — use_count == 1 —
  // is still private and is edited in place.
  RowPtr& slot = rows_[static_cast<std::size_t>(owner_)];
  RowVersion* fresh;
  if (slot != nullptr && slot.use_count() == 1) {
    fresh = const_cast<RowVersion*>(slot.get());
  } else {
    auto clone = slot == nullptr ? std::make_shared<RowVersion>()
                                 : std::make_shared<RowVersion>(*slot);
    fresh = clone.get();
    slot = std::move(clone);
  }
  auto cell = std::lower_bound(fresh->finite.begin(), fresh->finite.end(), peer, column_less);
  if (cell == fresh->finite.end() || cell->first != peer)
    cell = fresh->finite.emplace(cell, peer, kTimeInfinity);
  if (stat->count == 0) {
    cell->second = gap;
  } else {
    cell->second += (gap - cell->second) / static_cast<double>(stat->count + 1);
  }
  fresh->stamp = now;
  ++stat->count;
  stat->last_met = now;
  stamps_[static_cast<std::size_t>(owner_)] = now;
  ++generation_;
}

bool MeetingMatrix::merge_row(NodeId node, const std::vector<Time>& row, Time stamp) {
  if (node < 0 || node >= num_nodes_)
    throw std::invalid_argument("MeetingMatrix::merge_row: bad node");
  if (node == owner_) return false;  // never overwrite own observations
  if (row.size() != static_cast<std::size_t>(num_nodes_))
    throw std::invalid_argument("MeetingMatrix::merge_row: row size mismatch");
  if (stamp <= stamps_[static_cast<std::size_t>(node)]) return false;
  auto version = std::make_shared<RowVersion>();
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const Time cell = row[static_cast<std::size_t>(v)];
    if (cell != kTimeInfinity) version->finite.emplace_back(v, cell);
  }
  version->stamp = stamp;
  rows_[static_cast<std::size_t>(node)] = std::move(version);
  stamps_[static_cast<std::size_t>(node)] = stamp;
  ++generation_;
  ++stats_.rows_accepted;
  return true;
}

bool MeetingMatrix::merge_row(NodeId node, const RowPtr& version) {
  if (node < 0 || node >= num_nodes_)
    throw std::invalid_argument("MeetingMatrix::merge_row: bad node");
  if (node == owner_ || version == nullptr) return false;
  if (version->stamp <= stamps_[static_cast<std::size_t>(node)]) return false;
  rows_[static_cast<std::size_t>(node)] = version;
  stamps_[static_cast<std::size_t>(node)] = version->stamp;
  ++generation_;
  ++stats_.rows_accepted;
  return true;
}

Time MeetingMatrix::direct_mean(NodeId from, NodeId to) const {
  if (from == to) return 0;
  const RowPtr& v = rows_[static_cast<std::size_t>(from)];
  if (v == nullptr) return kTimeInfinity;
  const auto cell = std::lower_bound(v->finite.begin(), v->finite.end(), to, column_less);
  return cell != v->finite.end() && cell->first == to ? cell->second : kTimeInfinity;
}

namespace {

// Flat scratch for the frontier relaxation in hop_row(). One instance per
// thread serves every matrix on that thread (the relaxation never nests),
// so a 2000-node fleet carries one set of buffers per sweep thread instead
// of per node; it is thread-local because --threads runs simulations
// concurrently. Every buffer is sized once per fleet size, so a warm
// recompute allocates nothing. A frontier never holds more than n rows; the
// frontier buffers keep one spare slot for the branch-free append, which
// writes a column before deciding whether to keep it.
struct RelaxScratch {
  std::vector<NodeId> frontier;       // rows whose dist improved last round
  std::vector<NodeId> next_frontier;  // rows improving this round, discovery order
  std::vector<Time> heads;            // dist of each frontier row, frozen at round start
  std::vector<std::uint8_t> flag;     // 1 = column already in next_frontier; 0 between rounds

  void ensure(std::size_t n) {
    if (flag.size() < n) {
      frontier.resize(n + 1);
      next_frontier.resize(n + 1);
      heads.resize(n);
      flag.assign(n, 0);
    }
  }
};

RelaxScratch& relax_scratch() {
  thread_local RelaxScratch scratch;
  return scratch;
}

}  // namespace

const std::vector<Time>& MeetingMatrix::hop_row(NodeId from) const {
  auto memo = std::find_if(hop_rows_.begin(), hop_rows_.end(),
                           [from](const auto& entry) { return entry.first == from; });
  if (memo == hop_rows_.end()) {
    hop_rows_.emplace_back(from, HopRow{});
    memo = hop_rows_.end() - 1;
  } else if (memo->second.generation == generation_) {
    return memo->second.dist;
  }
  HopRow& cached = memo->second;
  ++stats_.hop_recomputes;

  // Single-source relaxation: after round r, dist[v] is the cheapest sum of
  // expected pairwise meeting times along a path of at most r+1 rows (never
  // more, matching the paper's h = 3 bound).
  //
  // Frontier form of the classic Jacobi sweep: a round scans only the rows
  // whose distance improved in the previous round (any candidate through an
  // unchanged row was already >= dist when it was last scanned, so the min
  // is unaffected). The heads of those rows are frozen at round start, and
  // every candidate head + value is folded straight into dist with an
  // in-place min. That gives min(pre-round dist[v], every candidate for v),
  // the Jacobi value: path sums associate left to right exactly as in the
  // full sweep, min is order-independent, and every entry is a positive
  // time (no NaN, no -0), so the doubles are bit-identical. Reading heads
  // from the live dist instead would let a head lowered earlier in the same
  // round extend a path one row past the budget.
  //
  // The per-edge loop has no data-dependent branch: the min is a select, and
  // the next frontier is collected with a flagged append (a column joins the
  // first time a candidate beats its value, the same members in the same
  // order as a compare-and-push). The final round collects no frontier.
  const auto n = static_cast<std::size_t>(num_nodes_);
  std::vector<Time>& dist = cached.dist;
  dist.assign(n, kTimeInfinity);
  const RowPtr& own = rows_[static_cast<std::size_t>(from)];
  if (own != nullptr) {  // 1-hop paths
    for (const auto& [v, val] : own->finite) dist[static_cast<std::size_t>(v)] = val;
  }
  dist[static_cast<std::size_t>(from)] = 0;

  RelaxScratch& scratch = relax_scratch();
  scratch.ensure(n);
  NodeId* frontier = scratch.frontier.data();
  NodeId* next_frontier = scratch.next_frontier.data();
  Time* const heads = scratch.heads.data();
  std::uint8_t* const flag = scratch.flag.data();
  Time* const d = dist.data();
  std::size_t fn = 0;
  frontier[fn++] = from;
  if (own != nullptr) {
    for (const auto& [v, val] : own->finite)
      if (v != from) frontier[fn++] = v;
  }

  for (int round = 1; round < max_hops_ && fn > 0; ++round) {
    for (std::size_t f = 0; f < fn; ++f) heads[f] = d[static_cast<std::size_t>(frontier[f])];
    const bool last = round == max_hops_ - 1;
    std::size_t count = 0;
    // RowVersions are scattered heap objects shared across the fleet, so a
    // cold row costs a dependent-load chain (slot -> object -> pair data).
    // The frontier is known ahead of time, so the chain is pipelined:
    // prefetch the rows_ slot far out, the object it points to closer in,
    // and every cache line of the pair data a few rows out.
    constexpr std::size_t kSlotAhead = 16;
    constexpr std::size_t kObjAhead = 8;
    constexpr std::size_t kDataAhead = 3;
    for (std::size_t f = 0; f < fn; ++f) {
      if (f + kSlotAhead < fn)
        __builtin_prefetch(&rows_[static_cast<std::size_t>(frontier[f + kSlotAhead])]);
      if (f + kObjAhead < fn)
        __builtin_prefetch(rows_[static_cast<std::size_t>(frontier[f + kObjAhead])].get());
      if (f + kDataAhead < fn) {
        if (const RowVersion* ahead =
                rows_[static_cast<std::size_t>(frontier[f + kDataAhead])].get()) {
          constexpr std::uintptr_t kLine = 64;
          const auto begin = reinterpret_cast<std::uintptr_t>(ahead->finite.data());
          const auto end =
              reinterpret_cast<std::uintptr_t>(ahead->finite.data() + ahead->finite.size());
          for (std::uintptr_t line = begin & ~(kLine - 1); line < end; line += kLine)
            __builtin_prefetch(reinterpret_cast<const void*>(line));
        }
      }
      const Time head = heads[f];
      if (head == kTimeInfinity) continue;
      const RowVersion* mid_version = rows_[static_cast<std::size_t>(frontier[f])].get();
      if (mid_version == nullptr) continue;
      // Stream the packed (col, value) pairs — rows are sparse in large
      // fleets. One probe addition per scanned row, not per edge.
      const auto* pairs = mid_version->finite.data();
      const std::size_t k = mid_version->finite.size();
      stats_.hop_edges += k;
      if (last) {
        for (std::size_t i = 0; i < k; ++i) {
          const Time candidate = head + pairs[i].second;
          Time& slot = d[static_cast<std::size_t>(pairs[i].first)];
          slot = candidate < slot ? candidate : slot;
        }
      } else {
        for (std::size_t i = 0; i < k; ++i) {
          const NodeId v = pairs[i].first;
          const auto vi = static_cast<std::size_t>(v);
          const Time candidate = head + pairs[i].second;
          const auto better = static_cast<std::uint8_t>(candidate < d[vi]);
          const std::uint8_t seen = flag[vi];
          d[vi] = candidate < d[vi] ? candidate : d[vi];
          next_frontier[count] = v;  // kept only if counted below
          count += better & (seen ^ 1u);
          flag[vi] = seen | better;
        }
      }
    }
    for (std::size_t j = 0; j < count; ++j) flag[static_cast<std::size_t>(next_frontier[j])] = 0;
    std::swap(frontier, next_frontier);
    fn = count;
  }
  cached.generation = generation_;
  return dist;
}

Time MeetingMatrix::expected_meeting_time(NodeId from, NodeId to) const {
  if (from < 0 || from >= num_nodes_ || to < 0 || to >= num_nodes_)
    throw std::invalid_argument("MeetingMatrix::expected_meeting_time: bad node");
  if (from == to) return 0;
  return hop_row(from)[static_cast<std::size_t>(to)];
}

void MeetingMatrix::save(BinWriter& out) const {
  out.tag("MMTX");
  out.u64(generation_);
  const auto n = static_cast<std::size_t>(num_nodes_);
  for (std::size_t u = 0; u < n; ++u) out.f64(stamps_[u]);
  // Per-peer records in the dense layout: zero for peers never met.
  std::size_t next = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const bool met = next < peers_.size() && peers_[next].peer == static_cast<NodeId>(u);
    out.f64(met ? peers_[next++].last_met : 0.0);
  }
  next = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const bool met = next < peers_.size() && peers_[next].peer == static_cast<NodeId>(u);
    out.i64(met ? peers_[next++].count : 0);
  }
  for (std::size_t u = 0; u < n; ++u) {
    const RowPtr& v = rows_[u];
    if (v == nullptr) {
      out.u8(0);
      continue;
    }
    out.u8(1);
    std::uint64_t id = 0;
    if (out.intern(v.get(), id)) {
      out.f64(v->stamp);
      auto cell = v->finite.begin();
      for (std::size_t c = 0; c < n; ++c) {
        const bool finite = cell != v->finite.end() && cell->first == static_cast<NodeId>(c);
        out.f64(finite ? (cell++)->second : kTimeInfinity);
      }
    }
  }
}

void MeetingMatrix::load(BinReader& in) {
  in.expect_tag("MMTX");
  generation_ = in.u64();
  hop_rows_.clear();  // memoized at generations of the state being replaced
  const auto n = static_cast<std::size_t>(num_nodes_);
  for (std::size_t u = 0; u < n; ++u) stamps_[u] = in.f64();
  std::vector<Time> last_met(n);
  for (std::size_t u = 0; u < n; ++u) last_met[u] = in.f64();
  peers_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    const auto count = static_cast<int>(in.i64());
    if (count != 0) peers_.push_back(PeerStat{static_cast<NodeId>(u), count, last_met[u]});
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (in.u8() == 0) {
      rows_[u] = nullptr;
      continue;
    }
    const std::uint64_t id = in.intern_id();
    if (std::shared_ptr<void> known = in.interned(id)) {
      rows_[u] = std::static_pointer_cast<const RowVersion>(known);
      continue;
    }
    auto version = std::make_shared<RowVersion>();
    version->stamp = in.f64();
    for (std::size_t c = 0; c < n; ++c) {
      const Time cell = in.f64();
      if (cell != kTimeInfinity) version->finite.emplace_back(static_cast<NodeId>(c), cell);
    }
    in.register_interned(id, version);
    rows_[u] = std::move(version);
  }
}

}  // namespace rapid
