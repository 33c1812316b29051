// Incrementally maintained oldest-first order of a router's buffer.
//
// Direct, Epidemic, PRoPHET, Random and Spray and Wait plan their contacts
// oldest-created-first. Rather than re-sorting the buffer at every contact,
// the base Router keeps one AgeOrder in step with its own buffer mutations
// (Router::oldest_first in dtn/router.h), from the first time a protocol
// asks for it:
//
//   * admit    — insert-sorted into place (binary search + shift) while the
//                order is clean, plain append once it is dirty;
//   * removal  — swap-erase (O(1)) which perturbs the tail, so it flips an
//                explicit dirty flag;
//   * read     — ids() re-sorts only when dirty. A contact that admitted or
//                dropped nothing reuses the order as-is, which is the common
//                case and the point.
//
// Order is (created, id) ascending — a total order, so the result is
// independent of insertion/removal history (asserted by the flat-state
// tests).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "util/types.h"

namespace rapid {

class AgeOrder {
 public:
  void insert(Time created, PacketId id) {
    const std::pair<Time, PacketId> e{created, id};
    if (dirty_) {
      entries_.push_back(e);
      return;
    }
    if (entries_.empty() || entries_.back() < e) {
      entries_.push_back(e);  // fast path: arrives in order
      return;
    }
    entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), e), e);
  }

  // Swap-erase; flips the dirty flag when it perturbs the order. No-op if
  // the entry is absent (protocols may drop packets they never tracked).
  void remove(Time created, PacketId id) {
    const std::pair<Time, PacketId> e{created, id};
    std::size_t at = entries_.size();
    if (dirty_) {
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i] == e) {
          at = i;
          break;
        }
      }
    } else {
      const auto it = std::lower_bound(entries_.begin(), entries_.end(), e);
      if (it != entries_.end() && *it == e) at = static_cast<std::size_t>(it - entries_.begin());
    }
    if (at == entries_.size()) return;
    const std::size_t last = entries_.size() - 1;
    if (at != last) {
      entries_[at] = entries_[last];
      dirty_ = true;
    }
    entries_.pop_back();
  }

  // The maintained (created, id)-ascending id order; re-sorts only if dirty.
  const std::vector<std::pair<Time, PacketId>>& entries() {
    if (dirty_) {
      std::sort(entries_.begin(), entries_.end());
      dirty_ = false;
    }
    return entries_;
  }

  std::size_t size() const { return entries_.size(); }
  bool dirty() const { return dirty_; }
  void clear() {
    entries_.clear();
    dirty_ = false;
  }

 private:
  std::vector<std::pair<Time, PacketId>> entries_;
  bool dirty_ = false;
};

}  // namespace rapid
