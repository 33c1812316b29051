// Inter-node meeting-time estimation (§4.1.2).
//
// MeetingMatrix is one node's local table of expected inter-meeting times —
// the E[M_XZ] input to Algorithm 2's direct-delivery estimate d_j =
// E[M_jZ] * n_j(i). Every node tabulates the average time to meet every
// other node from its own meeting history (observe_meeting maintains the
// running mean of inter-meeting gaps), exchanges these rows as metadata
// (merge_row; rows are versioned by timestamp so stale gossip is ignored),
// and estimates E[M_XZ] as the expected time for X to meet Z in at most h
// hops (h = 3 in the paper): if X never meets Z directly, the estimate is
// the cheapest sum of expected pairwise meeting times along a path of at
// most h rows. Pairs unreachable in h hops get infinity, which the utility
// layer (core/utility.h) turns into a zero marginal via the delay cap.
//
// Storage and recomputation are incremental and grow with what the owner
// has learnt, not with the fleet: a row version is an immutable snapshot
// (the finite entries, column-sorted, plus a stamp) shared between every node
// that learnt it, so gossiping a row is one pointer copy, the wire-size
// accounting reads the finite count in O(1), a direct lookup is a binary
// search, and the h-hop relaxation walks only finite columns. A version is
// one allocation: a small header followed by the values and then the
// columns as two packed arrays. At 2000 nodes a row holds ~15 entries, so a
// version is a few hundred bytes where a dense row would be 16 KB, and a
// node's slot for a row it has not learnt is one null pointer (8 bytes).
//
// Versions are reference counted with a plain integer, not an atomic: they
// are only ever shared between the matrices of one Simulation, and one
// Simulation runs on one thread (--threads parallelises whole runs, each
// with its own routers and versions). The owner edits its own row in place
// while no other matrix holds the current version and the allocation has
// room; otherwise it clones, and the copy it gossiped stays valid wherever
// it travelled.
//
// h-hop estimates are computed per *source* on demand (O(h·n·k)
// single-source relaxation over k finite entries per row) and memoized
// until the matrix changes: every mutation bumps a generation counter, and a
// memoized row computed at an older generation is recomputed on its next read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.h"

namespace rapid {

class BinReader;  // util/binio.h
class BinWriter;

// One node's meeting-time table. Contract: expected_meeting_time(X, Z) is
// the E[M_XZ] term that Algorithm 2 multiplies into the per-replica direct
// delay d_j = E[M_jZ] * n_j(i), which Eq. 7-9 then aggregate and Eqs. 1-3
// consume as A(i); it is a pure function of the rows learnt so far
// (observe_meeting / merge_row), infinity when Z is unreachable within
// max_hops rows, and memoized internally (the const query methods may fill
// caches but never change what any query returns).
class MeetingMatrix {
 public:
  // An immutable learnt row, one allocation: this header, then
  // Time vals[capacity], then NodeId cols[capacity]. The first `count`
  // entries of each array are the finite entries in ascending column order;
  // absent columns are infinity. Shared (never mutated once another matrix
  // holds it) between every matrix that learnt this version. `refs` is the
  // number of RowPtr handles holding it — a plain integer, since versions
  // never leave the thread of the Simulation that made them.
  struct RowVersion {
    std::uint32_t refs = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
    Time stamp = -kTimeInfinity;

    const Time* vals() const { return reinterpret_cast<const Time*>(this + 1); }
    const NodeId* cols() const { return reinterpret_cast<const NodeId*>(vals() + capacity); }
    Time* vals() { return reinterpret_cast<Time*>(this + 1); }
    NodeId* cols() { return reinterpret_cast<NodeId*>(vals() + capacity); }
    // Bytes of the whole allocation (header and both arrays).
    static std::size_t bytes(std::uint32_t capacity) {
      return sizeof(RowVersion) + capacity * (sizeof(Time) + sizeof(NodeId));
    }
  };

  // An 8-byte owning handle on a RowVersion: copying bumps `refs`, the last
  // handle frees the allocation. Only MeetingMatrix makes versions.
  class RowPtr {
   public:
    RowPtr() = default;
    RowPtr(std::nullptr_t) {}
    RowPtr(const RowPtr& other) : p_(other.p_) {
      if (p_ != nullptr) ++p_->refs;
    }
    RowPtr(RowPtr&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
    // Copy and move assignment in one: `other` holds the new reference and
    // releases the old one when it goes out of scope.
    RowPtr& operator=(RowPtr other) noexcept {
      std::swap(p_, other.p_);
      return *this;
    }
    ~RowPtr() { release(); }

    const RowVersion* get() const { return p_; }
    const RowVersion* operator->() const { return p_; }
    const RowVersion& operator*() const { return *p_; }
    bool operator==(std::nullptr_t) const { return p_ == nullptr; }
    bool operator!=(std::nullptr_t) const { return p_ != nullptr; }

   private:
    friend class MeetingMatrix;
    // Adopts a fresh version (refs 0) as its first holder.
    explicit RowPtr(RowVersion* fresh) : p_(fresh) { ++p_->refs; }
    void release();

    RowVersion* p_ = nullptr;
  };

  // `owner` is the node whose local view this is; `num_nodes` sizes the table.
  MeetingMatrix(NodeId owner, int num_nodes, int max_hops = 3);

  NodeId owner() const { return owner_; }
  int num_nodes() const { return num_nodes_; }

  // Record a direct meeting between the owner and `peer` at `now`. The
  // running mean of inter-meeting gaps is the row entry; the first gap is
  // measured from time 0, as the testbed implementation does. Produces a
  // fresh own-row version (the previous one stays valid wherever it was
  // gossiped to).
  void observe_meeting(NodeId peer, Time now);

  // Merge another node's row (from metadata). Rows are versioned by `stamp`;
  // stale rows are ignored. Returns true if the row was accepted.
  bool merge_row(NodeId node, const std::vector<Time>& row, Time stamp);
  // Zero-copy variant for same-process gossip: adopts the shared version
  // (finite entries and stamp travel as one handle copy).
  bool merge_row(NodeId node, const RowPtr& version);
  // The learnt version of `node`'s row, for zero-copy gossip; null when
  // nothing was learnt yet.
  const RowPtr& share_row(NodeId node) const {
    return rows_[static_cast<std::size_t>(node)];
  }

  Time row_stamp(NodeId node) const { return stamps_[static_cast<std::size_t>(node)]; }

  // Direct average only (infinity if never seen in any known row).
  Time direct_mean(NodeId from, NodeId to) const;

  // E[M_{from,to}] within max_hops hops; infinity when unreachable.
  Time expected_meeting_time(NodeId from, NodeId to) const;

  // Number of distinct peers the owner has met directly.
  int peers_met() const { return static_cast<int>(peers_.size()); }

  // Number of finite entries in `node`'s row as most recently learnt; O(1)
  // (precomputed per row version), feeding the metadata wire-size accounting.
  int finite_count(NodeId node) const {
    const RowPtr& v = rows_[static_cast<std::size_t>(node)];
    return v == nullptr ? 0 : static_cast<int>(v->count);
  }

  // Bumped on every accepted mutation (observe_meeting, accepted merge_row)
  // and reset to 0 by load(); the hop-row memo below keys its rows on this.
  std::uint64_t generation() const { return generation_; }

  // Work probes, flushed into the run's registry by RapidRouter::flush_obs
  // as matrix.hop_recomputes, matrix.hop_edges and matrix.rows_accepted.
  struct Stats {
    std::uint64_t hop_recomputes = 0;  // h-hop rows recomputed (memo misses)
    std::uint64_t hop_edges = 0;       // finite entries relaxed by those recomputes
    std::uint64_t rows_accepted = 0;   // merge_row calls that adopted a row
  };
  const Stats& stats() const { return stats_; }

  // Snapshot/restore of what the matrix holds: the per-peer records, then
  // each learnt row as (node, intern id[, stamp, (column, value) entries]),
  // ids ascending. Shared RowVersions are written once through the interning
  // table and re-shared on load, so the gossip sharing graph (and with it
  // observe_meeting's clone-vs-edit decisions) replays exactly. load()
  // derives the stamps, restarts the generation at 0, clears the h-hop memo
  // and throws std::runtime_error on unsorted or out-of-range ids.
  void save(BinWriter& out) const;
  void load(BinReader& in);

 private:
  // A fresh, unshared version with room for `capacity` entries.
  static RowPtr make_row(std::uint32_t capacity, Time stamp);
  // A fresh version from a dense row (column = index), for tests' merge_row.
  static RowPtr row_from_dense(const std::vector<Time>& dense, Time stamp);

  NodeId owner_;
  int num_nodes_;
  int max_hops_;
  // rows_[u] = u's averaged-meeting-time row, as most recently learnt.
  // Null = nothing learnt about u yet (treated as all-infinity).
  std::vector<RowPtr> rows_;
  // rows_[u]->stamp, or -infinity where nothing was learnt; not snapshotted.
  std::vector<Time> stamps_;
  // The owner's direct meetings, one record per peer met, sorted by peer.
  struct PeerStat {
    NodeId peer = kNoNode;
    int count = 0;      // direct meetings so far
    Time last_met = 0;  // time of the latest one
  };
  std::vector<PeerStat> peers_;
  std::uint64_t generation_ = 0;
  mutable Stats stats_;  // hop_row() counts its recomputes

  // Memoized single-source h-hop distances, recomputed lazily per source
  // when the generation they were computed at goes stale. RAPID asks only
  // about its own source; mixed-protocol runs also ask about peers, so the
  // memo is a short list searched linearly.
  struct HopRow {
    std::uint64_t generation = 0;
    std::vector<Time> dist;
  };
  mutable std::vector<std::pair<NodeId, HopRow>> hop_rows_;

  // A recompute is a frontier-driven relaxation over flat arrays (see
  // hop_row() in the .cpp): per round it scans only the rows whose distance
  // improved in the previous round instead of all n rows. Frozen heads, an
  // in-place min and a flagged frontier: each round copies its frontier
  // rows' distances aside first, folds every candidate into dist with a
  // branch-free min, and collects the next frontier with a branch-free
  // flagged append — Jacobi semantics (same values bit for bit as the full
  // n-scan) with no data-dependent branch per edge. The scratch lives in one
  // thread-local pool shared by every matrix on the thread, so 2000-node
  // fleets do not carry per-node relaxation buffers.
  const std::vector<Time>& hop_row(NodeId from) const;
};

}  // namespace rapid
