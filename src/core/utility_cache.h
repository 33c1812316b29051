// Incremental utility engine for the RAPID hot path.
//
// RAPID's control loop (§3.4 / §4) evaluates, at every transfer opportunity,
// the delay estimate of Algorithm 2 and the marginal utilities of Eqs. 1-3
// for every buffered packet. Computed eagerly that walk is the dominant cost
// as node and packet counts grow: the expensive inputs — the queue position
// term b_j(i) of Algorithm 2, the meeting-time estimate E[M_XZ] (§4.1.2) and
// the replica-rate sum over the metadata view (§4.2) — change far more
// slowly than they are read.
//
// UtilityCache makes those reads incremental:
//
//  * Per-destination packet queues live in flat contiguous storage (packed
//    age-sorted entry vectors, one per destination queued for so far,
//    behind a direct slot index) instead of a node-keyed map of vectors,
//    with an incrementally maintained size histogram so the prefix-bytes
//    term of Algorithm 2 is O(log n) for the uniform-size workloads of
//    Table 4.
//  * Per-packet direct-delay estimates (d_j of Algorithm 2) and replica-rate
//    sums (sum_j 1/d_j of Eqs. 7-9) are memoized in a packed entry vector
//    reached through a direct slot-by-PacketId index, each value keyed by
//    the inputs that produced it: the queue-prefix bytes, opportunity
//    average and meeting-time estimate by value (cheap to read back), the
//    per-packet metadata record by generation (MetadataStore::generation),
//    plus buffer membership.
//
// Invalidation is dirty-tracking by construction: a metadata update, a
// replica change, a queue edit or a meeting-time move makes exactly the
// packets whose cached values referenced that input compare stale at their
// next lookup; everything else keeps hitting — a contact that perturbs a
// node's matrix without moving the estimate toward some destination
// invalidates none of that destination's packets. A stale value is
// recomputed by the same code path the eager engine runs, from identical
// inputs, so cached and eager routers produce bit-identical figure output
// (locked in by tests/runner_test.cpp's dual-path figure tests).
//
// Probe counters (UtilityCacheStats) count hits and recomputations per
// router; RapidRouter::flush_obs sums them into the run's metrics registry
// (utility.* counters), where whole-run tests and benches read them.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace rapid {

// Hit/recompute probe counters. "Recompute" counts every evaluation of the
// underlying estimator: an eager (cache-disabled) router counts one per
// call, a caching router one per miss, so the ratio of the two is the
// work-saved factor reported by bench_micro.
struct UtilityCacheStats {
  std::uint64_t delay_hits = 0;
  std::uint64_t delay_recomputes = 0;
  std::uint64_t rate_hits = 0;
  std::uint64_t rate_recomputes = 0;
  std::uint64_t forgets = 0;  // entries dropped via forget() (acked packets)

  std::uint64_t recomputes() const { return delay_recomputes + rate_recomputes; }
  std::uint64_t lookups() const {
    return delay_hits + delay_recomputes + rate_hits + rate_recomputes;
  }
};

// The memo itself. Contract: direct_delay()/rate() return exactly what their
// compute() callback would return for the given inputs — a hit is only ever
// served when every recorded input compares equal to the caller's, so a
// caching router is bit-identical to an eager one (the values feed Eqs. 1-3
// unchanged). The cache owns the per-destination queues it indexes; callers
// own the generation discipline for the inputs they pass.
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

  // The inputs a direct-delay estimate is a pure function of (Algorithm 2):
  // the bytes queued ahead b_j(i), the expected opportunity size B_j, and
  // the expected meeting time E[M]. All three are cheap to read back (the
  // flat queue answers the prefix in O(log n), the matrix memoizes its
  // h-hop rows), so entries are keyed by the *values* — a contact that
  // bumps a generation without actually moving the estimate for this
  // destination invalidates nothing. Exact double comparison is the point:
  // the value either moved or it did not (NaN never occurs; infinities
  // compare equal to themselves).
  struct DelayInputs {
    Bytes bytes_ahead = 0;
    Bytes opportunity = 0;
    Time meeting_time = 0;
    bool operator==(const DelayInputs& o) const {
      return bytes_ahead == o.bytes_ahead && opportunity == o.opportunity &&
             meeting_time == o.meeting_time;
    }
  };

  // A replica-rate sum additionally depends on the packet's metadata record
  // — compared by generation (MetadataStore::generation), since comparing
  // the whole replica list would cost as much as resumming it — and on
  // whether this node currently holds a copy (the fresh self term).
  struct RateInputs {
    DelayInputs delay;
    std::uint64_t metadata_gen = 0;
    bool in_buffer = false;
    bool operator==(const RateInputs& o) const {
      return delay == o.delay && metadata_gen == o.metadata_gen && in_buffer == o.in_buffer;
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

  // --- memoized per-packet estimates ----------------------------------------
  // compute() runs only when the entry is absent or its recorded inputs
  // differ (the entry is dirty); its result is then stored under `inputs`.
  // compute() may itself use the cache (a rate recompute reads the cached
  // self delay); entry references are re-acquired after it runs because an
  // insertion can grow the packed entry vector.

  template <typename Compute>
  double direct_delay(PacketId id, const DelayInputs& inputs, Compute&& compute) {
    if (const Entry* e = find_entry(id);
        e != nullptr && e->delay_valid && e->inputs == inputs) {
      ++stats_.delay_hits;
      return e->delay;
    }
    const double value = compute();
    ++stats_.delay_recomputes;
    Entry& e = entry_for(id);
    // The entry shares one input key between both cached values (a cache
    // line per packet); moving it invalidates the sibling value, which was
    // computed under the old state.
    if (!(e.inputs == inputs)) e.rate_valid = false;
    e.inputs = inputs;
    e.delay = value;
    e.delay_valid = true;
    return value;
  }

  template <typename Compute>
  double rate(PacketId id, const RateInputs& inputs, Compute&& compute) {
    if (const Entry* e = find_entry(id);
        e != nullptr && e->rate_valid && e->inputs == inputs.delay &&
        e->metadata_gen == inputs.metadata_gen && e->rate_in_buffer == inputs.in_buffer) {
      ++stats_.rate_hits;
      return e->rate;
    }
    const double value = compute();  // typically refreshes the delay in place
    ++stats_.rate_recomputes;
    Entry& e = entry_for(id);
    if (!(e.inputs == inputs.delay)) e.delay_valid = false;
    e.inputs = inputs.delay;
    e.rate = value;
    e.metadata_gen = inputs.metadata_gen;
    e.rate_in_buffer = inputs.in_buffer;
    e.rate_valid = true;
    return value;
  }

  // Drop the packet's cached values entirely (it was acknowledged: the
  // router will never ask about it again).
  void forget(PacketId id);

  // Eager-mode probes: a cache-disabled router reports every evaluation here
  // so eager and cached runs expose comparable recompute counts.
  void note_eager_delay() { ++stats_.delay_recomputes; }
  void note_eager_rate() { ++stats_.rate_recomputes; }

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

  // One packet's memo, sized to a cache line: both values share one input
  // key (they are virtually always refreshed together — a rate recompute
  // refreshes the delay it embeds), with the rate's extra key fields beside
  // it. Moving the shared key invalidates whichever sibling value was not
  // part of the store.
  struct Entry {
    PacketId id = kNoPacket;
    double delay = 0;
    double rate = 0;
    DelayInputs inputs;
    std::uint64_t metadata_gen = 0;
    bool delay_valid = false;
    bool rate_valid = false;
    bool rate_in_buffer = false;
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
