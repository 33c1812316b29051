// Incremental utility engine for the RAPID hot path.
//
// RAPID's control loop (§3.4 / §4) evaluates, at every transfer opportunity,
// the delay estimate of Algorithm 2 and the marginal utilities of Eqs. 1-3
// for every buffered packet. Two of their inputs are worth keeping between
// contacts:
//
//  * Per-destination packet queues live in flat contiguous storage (packed
//    age-sorted entry vectors, one per destination queued for so far,
//    behind a direct slot index) instead of a node-keyed map of vectors,
//    with an incrementally maintained size histogram so the prefix-bytes
//    term b_j(i) of Algorithm 2 is O(log n) for the uniform-size workloads
//    of Table 4.
//  * Per-packet replica-rate sums (sum_j 1/d_j of Eqs. 7-9) are memoized in
//    a packed entry vector reached through a direct slot-by-PacketId index.
//    A sum is a pure function of three things, and its entry is keyed by
//    exactly those: this node's own direct delay when it holds a copy (the
//    fresh self term), the packet's metadata record by generation
//    (MetadataStore::generation), and buffer membership.
//
// Algorithm 2's direct delay itself is not memoized: it is one division and
// one multiply on inputs the router must gather before any lookup, so the
// router computes it directly (RapidRouter::direct_delay).
//
// Invalidation is by key: a replica change or metadata update bumps the
// record's generation, and a queue edit or meeting-time move that changes
// this node's own delay changes the self term; exactly the packets whose
// sums read a moved input miss at their next lookup. Everything else keeps
// hitting, including a packet whose queue position moved without moving
// its delay. A miss recomputes from identical inputs in the same order, so
// a hit is bit-identical to a recompute (tests/runner_test.cpp checks every
// cached sum of stepped figure cells against a sum computed in the test).
//
// Probe counters (UtilityCacheStats) count hits and recomputations per
// router; RapidRouter::flush_obs sums them into the run's metrics registry
// (utility.* counters), where whole-run tests and benches read them.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace rapid {

// Hit/recompute probe counters for the replica-rate memo. "Recompute"
// counts every evaluation of the sum: a miss, or a global-oracle rate that
// is never memoized.
struct UtilityCacheStats {
  std::uint64_t rate_hits = 0;
  std::uint64_t rate_recomputes = 0;
  std::uint64_t forgets = 0;  // entries dropped via forget() (acked packets)
};

// The memo itself. Contract: rate() returns exactly what its compute()
// callback would return for the given inputs — a hit is only ever served
// when every recorded input compares equal to the caller's, so a memoized
// sum is bit-identical to a fresh one (the values feed Eqs. 1-3 unchanged).
// The cache owns the per-destination queues it indexes; callers own the
// generation discipline for the inputs they pass.
class UtilityCache {
 public:
  // One buffered (or hypothetically stored) packet in a destination queue,
  // ordered by age rank: oldest first, ties broken by id (§4.1 delivers the
  // oldest packet for a destination first).
  struct QueueEntry {
    Time created = 0;
    PacketId id = kNoPacket;
    Bytes size = 0;
    bool operator<(const QueueEntry& o) const {
      return created != o.created ? created < o.created : id < o.id;
    }
  };

  // What a replica-rate sum is a pure function of: this node's own direct
  // delay d_self (0 when it holds no copy), the packet's metadata record —
  // compared by generation, since comparing the whole replica list would
  // cost as much as resumming it — and whether this node holds a copy.
  // Exact double comparison is the point: the self delay either moved or it
  // did not (NaN never occurs; infinities compare equal to themselves).
  struct RateInputs {
    double self_delay = 0;
    std::uint64_t metadata_gen = 0;
    bool in_buffer = false;
    bool operator==(const RateInputs& o) const {
      return self_delay == o.self_delay && metadata_gen == o.metadata_gen &&
             in_buffer == o.in_buffer;
    }
  };

  explicit UtilityCache(int num_nodes);
  UtilityCache(const UtilityCache&) = delete;
  UtilityCache& operator=(const UtilityCache&) = delete;

  // --- flat destination queues ----------------------------------------------

  void queue_insert(NodeId dst, const QueueEntry& e);
  // Erases the entry with e's (created, id) key; no-op if absent.
  void queue_erase(NodeId dst, const QueueEntry& e);
  // An absent destination reads as an empty queue.
  const std::vector<QueueEntry>& queue(NodeId dst) const;
  // Bytes queued ahead of e (the b_j(i) term of Algorithm 2): the byte sum of
  // all strictly older entries. O(log n) when the queue holds one distinct
  // packet size (the maintained histogram), O(position) otherwise.
  Bytes queue_bytes_before(NodeId dst, const QueueEntry& e) const;
  // Non-empty queues in ascending destination order (deterministic, unlike
  // the node-keyed hash map this storage replaced). fn returns false to stop
  // early (e.g. when a metadata budget is exhausted). Iterates the maintained
  // non-empty index, not all n slots — a contact pays for the destinations it
  // actually buffers, not the fleet size.
  template <typename Fn>
  void for_each_queue(Fn&& fn) const {
    for (const NodeId dst : nonempty_)
      if (!fn(dst, find_queue(dst)->entries)) return;
  }

  // --- memoized replica-rate sums ------------------------------------------
  // compute() runs only when the entry is absent or its recorded inputs
  // differ; its result is then stored under `inputs`. compute() may use the
  // cache itself: the entry is acquired only after it returns.

  template <typename Compute>
  double rate(PacketId id, const RateInputs& inputs, Compute&& compute) {
    if (const Entry* e = find_entry(id); e != nullptr && e->inputs == inputs) {
      ++stats_.rate_hits;
      return e->rate;
    }
    const double value = compute();
    ++stats_.rate_recomputes;
    Entry& e = entry_for(id);
    e.rate = value;
    e.inputs = inputs;
    return value;
  }

  // A sum no key can capture (the global oracle reads other nodes' queues):
  // evaluated fresh every time and counted as a recompute.
  template <typename Compute>
  double uncached_rate(Compute&& compute) {
    ++stats_.rate_recomputes;
    return compute();
  }

  // Drop the packet's memoized sum (it was acknowledged or dropped: the
  // router asks about it again rarely, if ever).
  void forget(PacketId id);

  const UtilityCacheStats& stats() const { return stats_; }
  std::size_t tracked_packets() const { return entries_.size(); }

 private:
  struct DestQueue {
    std::vector<QueueEntry> entries;  // sorted by (created, id)
    // Histogram of distinct packet sizes present; one bucket in the uniform
    // case, which enables the O(log n) prefix-bytes fast path.
    std::vector<std::pair<Bytes, std::uint32_t>> size_counts;
    Bytes total_bytes = 0;
  };

  // One packet's memo. Entries are created only after a compute, so every
  // entry holds a valid sum.
  struct Entry {
    PacketId id = kNoPacket;
    double rate = 0;
    RateInputs inputs;
  };

  // Direct index from the dense PacketId space to a slot in the packed
  // entry vector: one flat load per lookup, no probing, no tombstones
  // (replaced the open-addressing index this cache started with).
  static constexpr std::int32_t kEmptySlot = -1;

  const Entry* find_entry(PacketId id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= index_.size()) return nullptr;
    const std::int32_t slot = index_[static_cast<std::size_t>(id)];
    return slot >= 0 ? &entries_[static_cast<std::size_t>(slot)] : nullptr;
  }
  Entry& entry_for(PacketId id);  // find-or-insert; may grow entries_

  const DestQueue* find_queue(NodeId dst) const {
    const std::int32_t slot = queue_slot_[static_cast<std::size_t>(dst)];
    return slot >= 0 ? &queues_[static_cast<std::size_t>(slot)] : nullptr;
  }
  DestQueue& queue_for(NodeId dst);  // find-or-insert; may grow queues_

  // Destinations this router has queued for, packed in order of first
  // insert and reached through a direct slot index (a queue that empties
  // keeps its slot).
  std::vector<std::int32_t> queue_slot_;  // NodeId -> queues_ slot, -1 = absent
  std::vector<DestQueue> queues_;
  std::vector<NodeId> nonempty_;     // dsts with entries, sorted ascending
  std::vector<Entry> entries_;       // packed; order is unspecified
  std::vector<std::int32_t> index_;  // PacketId -> entry slot, -1 = absent
  UtilityCacheStats stats_;
};

}  // namespace rapid
