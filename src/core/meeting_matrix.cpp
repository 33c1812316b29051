#include "core/meeting_matrix.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>

#include "util/binio.h"

namespace rapid {

void MeetingMatrix::RowPtr::release() {
  if (p_ != nullptr && --p_->refs == 0) {
    p_->~RowVersion();
    ::operator delete(p_);
  }
  p_ = nullptr;
}

MeetingMatrix::RowPtr MeetingMatrix::make_row(std::uint32_t capacity, Time stamp) {
  auto* version = new (::operator new(RowVersion::bytes(capacity))) RowVersion;
  version->capacity = capacity;
  version->stamp = stamp;
  return RowPtr(version);
}

MeetingMatrix::RowPtr MeetingMatrix::row_from_dense(const std::vector<Time>& dense, Time stamp) {
  const auto finite = static_cast<std::uint32_t>(std::count_if(
      dense.begin(), dense.end(), [](Time cell) { return cell != kTimeInfinity; }));
  RowPtr version = make_row(finite, stamp);
  RowVersion& fill = *version.p_;
  for (std::size_t c = 0; c < dense.size(); ++c) {
    if (dense[c] == kTimeInfinity) continue;
    fill.vals()[fill.count] = dense[c];
    fill.cols()[fill.count++] = static_cast<NodeId>(c);
  }
  return version;
}

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

  // Own-row versions are immutable once gossiped: edit in place only while
  // this matrix is the sole holder of the current version and it has room
  // for the cell; otherwise clone (the gossiped copy stays valid wherever it
  // travelled). A clone is sized to fit exactly — it is gossiped at the next
  // exchange, so spare room would only be copied around the fleet.
  RowPtr& slot = rows_[static_cast<std::size_t>(owner_)];
  const RowVersion* current = slot.get();
  const std::uint32_t count = current == nullptr ? 0 : current->count;
  std::uint32_t at = 0;
  if (current != nullptr) {
    const NodeId* cols = current->cols();
    at = static_cast<std::uint32_t>(std::lower_bound(cols, cols + count, peer) - cols);
  }
  const bool present = at < count && current->cols()[at] == peer;
  const std::uint32_t needed = count + (present ? 0 : 1);
  if (current == nullptr || current->refs != 1 || current->capacity < needed) {
    RowPtr clone = make_row(needed, now);
    if (current != nullptr) {
      // Copy around the insertion point; a new column's cell is filled below.
      const std::uint32_t skip = present ? 0 : 1;
      std::copy(current->vals(), current->vals() + at, clone.p_->vals());
      std::copy(current->vals() + at, current->vals() + count, clone.p_->vals() + at + skip);
      std::copy(current->cols(), current->cols() + at, clone.p_->cols());
      std::copy(current->cols() + at, current->cols() + count, clone.p_->cols() + at + skip);
    }
    clone.p_->count = needed;
    slot = std::move(clone);
  } else if (!present) {
    RowVersion& row = *slot.p_;
    std::copy_backward(row.vals() + at, row.vals() + count, row.vals() + count + 1);
    std::copy_backward(row.cols() + at, row.cols() + count, row.cols() + count + 1);
    row.count = needed;
  }
  RowVersion* fresh = slot.p_;
  Time& cell = fresh->vals()[at];
  if (!present) {
    fresh->cols()[at] = peer;
    cell = kTimeInfinity;
  }
  if (stat->count == 0) {
    cell = gap;
  } else {
    cell += (gap - cell) / static_cast<double>(stat->count + 1);
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
  rows_[static_cast<std::size_t>(node)] = row_from_dense(row, stamp);
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
  const NodeId* cols = v->cols();
  const NodeId* cell = std::lower_bound(cols, cols + v->count, to);
  return cell != cols + v->count && *cell == to ? v->vals()[cell - cols] : kTimeInfinity;
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
    for (std::uint32_t i = 0; i < own->count; ++i)
      dist[static_cast<std::size_t>(own->cols()[i])] = own->vals()[i];
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
    for (std::uint32_t i = 0; i < own->count; ++i)
      if (own->cols()[i] != from) frontier[fn++] = own->cols()[i];
  }

  for (int round = 1; round < max_hops_ && fn > 0; ++round) {
    for (std::size_t f = 0; f < fn; ++f) heads[f] = d[static_cast<std::size_t>(frontier[f])];
    const bool last = round == max_hops_ - 1;
    std::size_t count = 0;
    // RowVersions are scattered heap objects shared across the fleet, so a
    // cold row costs a dependent-load chain (slot -> version). The frontier
    // is known ahead of time, so the chain is pipelined: prefetch the rows_
    // slot far out, the version's header closer in, and every cache line of
    // the version (header, values, columns: one allocation) a few rows out.
    constexpr std::size_t kSlotAhead = 16;
    constexpr std::size_t kHeaderAhead = 8;
    constexpr std::size_t kDataAhead = 3;
    for (std::size_t f = 0; f < fn; ++f) {
      if (f + kSlotAhead < fn)
        __builtin_prefetch(&rows_[static_cast<std::size_t>(frontier[f + kSlotAhead])]);
      if (f + kHeaderAhead < fn)
        __builtin_prefetch(rows_[static_cast<std::size_t>(frontier[f + kHeaderAhead])].get());
      if (f + kDataAhead < fn) {
        if (const RowVersion* ahead =
                rows_[static_cast<std::size_t>(frontier[f + kDataAhead])].get()) {
          constexpr std::uintptr_t kLine = 64;
          const auto begin = reinterpret_cast<std::uintptr_t>(ahead);
          const auto end = reinterpret_cast<std::uintptr_t>(ahead->cols() + ahead->count);
          for (std::uintptr_t line = begin & ~(kLine - 1); line < end; line += kLine)
            __builtin_prefetch(reinterpret_cast<const void*>(line));
        }
      }
      const Time head = heads[f];
      if (head == kTimeInfinity) continue;
      const RowVersion* mid_version = rows_[static_cast<std::size_t>(frontier[f])].get();
      if (mid_version == nullptr) continue;
      // Stream the packed values and columns — rows are sparse in large
      // fleets. One probe addition per scanned row, not per edge.
      const Time* vals = mid_version->vals();
      const NodeId* cols = mid_version->cols();
      const std::size_t k = mid_version->count;
      stats_.hop_edges += k;
      if (last) {
        for (std::size_t i = 0; i < k; ++i) {
          const Time candidate = head + vals[i];
          Time& slot = d[static_cast<std::size_t>(cols[i])];
          slot = candidate < slot ? candidate : slot;
        }
      } else {
        for (std::size_t i = 0; i < k; ++i) {
          const NodeId v = cols[i];
          const auto vi = static_cast<std::size_t>(v);
          const Time candidate = head + vals[i];
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
  out.u64(peers_.size());
  for (const PeerStat& stat : peers_) {
    out.u32(static_cast<std::uint32_t>(stat.peer));
    out.i64(stat.count);
    out.f64(stat.last_met);
  }
  out.u64(static_cast<std::uint64_t>(
      std::count_if(rows_.begin(), rows_.end(), [](const RowPtr& v) { return v != nullptr; })));
  for (std::size_t u = 0; u < rows_.size(); ++u) {
    const RowPtr& v = rows_[u];
    if (v == nullptr) continue;
    out.u32(static_cast<std::uint32_t>(u));
    std::uint64_t id = 0;
    if (out.intern(v.get(), id)) {
      out.f64(v->stamp);
      out.u64(v->count);
      for (std::uint32_t i = 0; i < v->count; ++i) {
        out.u32(static_cast<std::uint32_t>(v->cols()[i]));
        out.f64(v->vals()[i]);
      }
    }
  }
}

void MeetingMatrix::load(BinReader& in) {
  in.expect_tag("MMTX");
  peers_.clear();
  const std::uint64_t peers = in.count_at_most(num_nodes_, "peer");
  for (NodeId peer = -1; peers_.size() < peers;) {
    peer = in.ascending_id(peer, num_nodes_, "peer");
    if (peer == owner_) BinReader::fail("the owner listed as its own peer");
    const std::int64_t count = in.i64();
    if (count < 1 || count > std::numeric_limits<int>::max())
      BinReader::fail("peer meeting count out of range");
    peers_.push_back(PeerStat{peer, static_cast<int>(count), in.f64()});
  }
  rows_.assign(rows_.size(), nullptr);
  std::fill(stamps_.begin(), stamps_.end(), -kTimeInfinity);
  const std::uint64_t learnt = in.count_at_most(num_nodes_, "row");
  NodeId u = -1;
  for (std::uint64_t i = 0; i < learnt; ++i) {
    u = in.ascending_id(u, num_nodes_, "row node");
    RowPtr& slot = rows_[static_cast<std::size_t>(u)];
    // The reader's interning table holds shared_ptr<void>; each entry owns a
    // handle on the version, so a later matrix in the snapshot re-shares it.
    const std::uint64_t id = in.intern_id();
    if (std::shared_ptr<void> known = in.interned(id)) {
      slot = *std::static_pointer_cast<const RowPtr>(known);
    } else {
      const Time stamp = in.f64();
      const auto count = static_cast<std::uint32_t>(in.count_at_most(num_nodes_, "row entry"));
      slot = make_row(count, stamp);
      RowVersion& row = *slot.p_;
      for (NodeId col = -1; row.count < count; ++row.count) {
        col = in.ascending_id(col, num_nodes_, "row column");
        row.cols()[row.count] = col;
        row.vals()[row.count] = in.f64();
      }
      in.register_interned(id, std::make_shared<RowPtr>(slot));
    }
    stamps_[static_cast<std::size_t>(u)] = slot->stamp;
  }
  // The generation only keys the hop-row memo, which restores cold.
  generation_ = 0;
  hop_rows_.clear();
}

}  // namespace rapid
