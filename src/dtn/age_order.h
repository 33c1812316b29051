// Incrementally maintained oldest-first order of a router's buffer.
//
// Direct, Epidemic, PRoPHET, Random and Spray and Wait plan their contacts
// oldest-created-first. Rather than re-sorting the buffer at every contact,
// the base Router keeps one AgeOrder in step with its own buffer mutations
// (Router::oldest_first in dtn/router.h), from the first time a protocol
// asks for it. The entries are a sorted prefix followed by an unsorted
// tail of recent inserts:
//
//   * admit    — insert-sorted into place (binary search + shift) while the
//                order is clean, plain append to the tail otherwise;
//   * removal  — O(1): the entry stays where it is and the order is marked
//                stale. No search;
//   * read     — entries() does nothing on a clean order, which is the
//                common case and the point. Otherwise it drops the entries
//                whose packet is no longer buffered, sorts only the tail,
//                merges it into the prefix through caller-provided scratch
//                (shared per simulation, so a read never allocates) and
//                merges duplicates: a packet removed and then re-stored
//                left two entries with the same key, now side by side.
//
// Order is (created, id) ascending — a total order, and a packet's key never
// changes, so the result is independent of insertion/removal history
// (asserted by the flat-state tests).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dtn/buffer.h"
#include "util/types.h"

namespace rapid {

class AgeOrder {
 public:
  using Entry = std::pair<Time, PacketId>;

  void insert(Time created, PacketId id) {
    const Entry e{created, id};
    if (clean()) {
      if (entries_.empty() || entries_.back() < e) {
        entries_.push_back(e);  // fast path: arrives in order
      } else {
        entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), e), e);
      }
      sorted_ = static_cast<std::uint32_t>(entries_.size());
      return;
    }
    entries_.push_back(e);
  }

  // A tracked packet left the buffer. Its entry stays until the next read.
  void note_removal() { stale_ = true; }

  // The (created, id)-ascending order of the entries whose packet `live`
  // holds, each once. `scratch` is borrowed for the merge; its contents on
  // return are unspecified.
  const std::vector<Entry>& entries(const Buffer& live, std::vector<Entry>& scratch) {
    if (clean()) return entries_;
    std::size_t prefix = sorted_;
    if (stale_) {
      std::size_t kept = 0;
      std::size_t kept_prefix = 0;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!live.contains(entries_[i].second)) continue;
        if (i < prefix) ++kept_prefix;
        entries_[kept++] = entries_[i];
      }
      entries_.resize(kept);
      prefix = kept_prefix;
    }
    const auto mid = entries_.begin() + static_cast<std::ptrdiff_t>(prefix);
    std::sort(mid, entries_.end());
    if (prefix > 0 && mid != entries_.end() && !(*(mid - 1) < *mid)) {
      // Merge back to front: the tail moves to scratch, and the write
      // position never passes the prefix entries not yet read.
      scratch.assign(mid, entries_.end());
      std::size_t head = prefix;
      std::size_t tail = scratch.size();
      std::size_t out = entries_.size();
      while (tail > 0) {
        if (head > 0 && scratch[tail - 1] < entries_[head - 1]) {
          entries_[--out] = entries_[--head];
        } else {
          entries_[--out] = scratch[--tail];
        }
      }
    }
    // Only a removal can leave a live packet with two entries.
    if (stale_) entries_.erase(std::unique(entries_.begin(), entries_.end()), entries_.end());
    sorted_ = static_cast<std::uint32_t>(entries_.size());
    stale_ = false;
    return entries_;
  }

  // Entries held, including those a read has yet to drop or merge.
  std::size_t size() const { return entries_.size(); }
  // False when a read would have work to do.
  bool clean() const { return !stale_ && sorted_ == entries_.size(); }
  void clear() {
    entries_.clear();
    sorted_ = 0;
    stale_ = false;
  }

 private:
  std::vector<Entry> entries_;
  std::uint32_t sorted_ = 0;  // length of the sorted, duplicate-free prefix
  bool stale_ = false;        // a removal left entries a read must drop
};

// Keeps Router at its size: the two fields sit in the vector's tail padding.
static_assert(sizeof(AgeOrder) == 32, "AgeOrder must stay one vector plus 8 bytes");

}  // namespace rapid
