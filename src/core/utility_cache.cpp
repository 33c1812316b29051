#include "core/utility_cache.h"

#include <algorithm>
#include <stdexcept>

#include "util/slab.h"

namespace rapid {

UtilityCache::UtilityCache(int num_nodes) {
  if (num_nodes < 0) throw std::invalid_argument("UtilityCache: negative num_nodes");
  queue_slot_.assign(static_cast<std::size_t>(num_nodes), kEmptySlot);
}

// --- flat destination queues --------------------------------------------------

const std::vector<UtilityCache::QueueEntry>& UtilityCache::queue(NodeId dst) const {
  static const std::vector<QueueEntry> kNone;
  const DestQueue* q = find_queue(dst);
  return q != nullptr ? q->entries : kNone;
}

UtilityCache::DestQueue& UtilityCache::queue_for(NodeId dst) {
  std::int32_t& slot = queue_slot_[static_cast<std::size_t>(dst)];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(queues_.size());
    queues_.emplace_back();
  }
  return queues_[static_cast<std::size_t>(slot)];
}

void UtilityCache::queue_insert(NodeId dst, const QueueEntry& e) {
  DestQueue& q = queue_for(dst);
  if (q.entries.empty())
    nonempty_.insert(std::lower_bound(nonempty_.begin(), nonempty_.end(), dst), dst);
  q.entries.insert(std::upper_bound(q.entries.begin(), q.entries.end(), e), e);
  q.total_bytes += e.size;
  for (auto& [size, count] : q.size_counts) {
    if (size == e.size) {
      ++count;
      return;
    }
  }
  q.size_counts.emplace_back(e.size, 1);
}

void UtilityCache::queue_erase(NodeId dst, const QueueEntry& e) {
  const std::int32_t slot = queue_slot_[static_cast<std::size_t>(dst)];
  if (slot < 0) return;
  DestQueue& q = queues_[static_cast<std::size_t>(slot)];
  const auto pos = std::lower_bound(q.entries.begin(), q.entries.end(), e);
  if (pos == q.entries.end() || pos->id != e.id) return;
  const Bytes size = pos->size;
  q.entries.erase(pos);
  if (q.entries.empty())
    nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), dst));
  q.total_bytes -= size;
  for (std::size_t i = 0; i < q.size_counts.size(); ++i) {
    if (q.size_counts[i].first == size) {
      if (--q.size_counts[i].second == 0) {
        q.size_counts[i] = q.size_counts.back();
        q.size_counts.pop_back();
      }
      return;
    }
  }
}

Bytes UtilityCache::queue_bytes_before(NodeId dst, const QueueEntry& e) const {
  const DestQueue* found = find_queue(dst);
  if (found == nullptr) return 0;
  const DestQueue& q = *found;
  const auto pos = std::lower_bound(q.entries.begin(), q.entries.end(), e);
  const auto idx = static_cast<std::size_t>(pos - q.entries.begin());
  if (idx == 0) return 0;
  // Uniform-size fast path (Table 4 workloads): prefix = position * size.
  if (q.size_counts.size() == 1) return static_cast<Bytes>(idx) * q.size_counts[0].first;
  // Hypothetical entry sorting past the tail: the whole queue is ahead.
  if (idx == q.entries.size()) return q.total_bytes;
  Bytes total = 0;
  for (std::size_t i = 0; i < idx; ++i) total += q.entries[i].size;
  return total;
}

// --- direct packet index ------------------------------------------------------

UtilityCache::Entry& UtilityCache::entry_for(PacketId id) {
  if (id < 0) throw std::invalid_argument("UtilityCache: negative packet id");
  std::int32_t& slot = grow_slot(index_, id, kEmptySlot);
  if (slot >= 0) return entries_[static_cast<std::size_t>(slot)];
  entries_.emplace_back();
  entries_.back().id = id;
  slot = static_cast<std::int32_t>(entries_.size() - 1);
  return entries_.back();
}

void UtilityCache::forget(PacketId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= index_.size()) return;
  const std::int32_t slot = index_[static_cast<std::size_t>(id)];
  if (slot < 0) return;
  ++stats_.forgets;
  index_[static_cast<std::size_t>(id)] = kEmptySlot;
  // Swap-remove from the packed vector and repoint the moved entry's slot.
  const auto i = static_cast<std::size_t>(slot);
  const std::size_t last = entries_.size() - 1;
  if (i != last) {
    entries_[i] = entries_[last];
    index_[static_cast<std::size_t>(entries_[i].id)] = static_cast<std::int32_t>(i);
  }
  entries_.pop_back();
}

}  // namespace rapid
