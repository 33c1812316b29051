// The per-node metadata view RAPID's control channel maintains (§4.2):
// "For each encountered packet i, rapid maintains a list of nodes that carry
// the replica of i, and for each replica, an estimated time for direct
// delivery."
//
// Entries are versioned with timestamps so exchanges are delta-encoded: a
// node only sends records that changed since its last exchange with that
// peer, "which reduces the size of the exchange considerably."
//
// Storage is flat: packet ids are dense pool indexes, so membership is a
// direct-indexed position table (no hash buckets) into a packed record
// vector kept parallel to a compact occupied-id list — the delta-exchange
// walk and replica-rate scans run linear over contiguous memory, and only
// known packets ever carry a record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.h"

namespace rapid {

class BinReader;  // util/binio.h
class BinWriter;

struct ReplicaEstimate {
  NodeId holder = kNoNode;
  double direct_delay = 0;  // holder's own estimate of its direct-delivery time
  Time stamp = -kTimeInfinity;
};

struct PacketMetadata {
  std::vector<ReplicaEstimate> replicas;
  Time last_changed = -kTimeInfinity;
  // Store-unique version of this record, assigned from a monotonic counter
  // on every accepted change and on load; the utility cache keys replica-rate
  // sums on it (a bump marks exactly this packet's cached rate dirty).
  std::uint64_t generation = 0;
};

// Modeled wire sizes (bytes) for metadata accounting.
inline constexpr Bytes kPacketRecordHeaderBytes = 8;  // packet id
inline constexpr Bytes kReplicaEntryBytes = 8;        // holder id + delay estimate
inline constexpr Bytes kAckEntryBytes = 8;
inline constexpr Bytes kMeetingRowHeaderBytes = 4;
inline constexpr Bytes kMeetingRowEntryBytes = 8;
inline constexpr Bytes kScalarBytes = 8;  // e.g. average transfer size

// One node's replica ledger. Contract: replicas(i) is the node's current
// belief about which nodes hold packet i and at what self-estimated direct
// delay — the d_j terms whose rate sum 1/A(i) = sum_j 1/d_j feeds the
// utilities of Eqs. 1-3. Entries are last-writer-wins by stamp (stale
// gossip never overwrites fresher belief), generation(i) versions every
// accepted change for the utility cache, and the store never invents
// entries: everything present arrived via update_replica.
class MetadataStore {
 public:
  // Pre-sizes the id index for an experiment whose packet population is
  // known up front (the pool is fully generated before the simulation
  // starts).
  void reserve_packets(std::size_t n) { pos_.reserve(n); }

  // Record (or refresh) a replica estimate; keeps the newest stamp per
  // (packet, holder). Returns true if anything changed.
  bool update_replica(PacketId id, const ReplicaEstimate& estimate);
  // The holder no longer carries the packet (dropped it).
  bool remove_replica(PacketId id, NodeId holder, Time stamp);
  // Forget the packet entirely (it was acknowledged as delivered).
  void forget_packet(PacketId id);

  bool knows(PacketId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < pos_.size() &&
           pos_[static_cast<std::size_t>(id)] >= 0;
  }
  // Pointer into the packed record vector; invalidated by the next
  // update/forget of *any* packet (records are packed, not pinned).
  const PacketMetadata* find(PacketId id) const {
    return knows(id) ? &records_[record_index(id)] : nullptr;
  }
  // Believed replicas of a packet (possibly stale — that is the point).
  const std::vector<ReplicaEstimate>& replicas(PacketId id) const {
    return knows(id) ? records_[record_index(id)].replicas : kEmpty;
  }
  std::size_t packet_count() const { return occupied_.size(); }

  // The packet record's current version: 0 when the packet is unknown,
  // otherwise a value that changes on every accepted update/removal and is
  // never reused by this store. Dirty-tracking key for cached rate sums.
  std::uint64_t generation(PacketId id) const {
    return knows(id) ? records_[record_index(id)].generation : 0;
  }

  // Records changed since `since`, appended to `out` (cleared first) as
  // (packet, metadata) pairs; used for the delta exchange with a reusable
  // scratch vector. Order is unspecified.
  void changed_since(Time since, std::vector<std::pair<PacketId, const PacketMetadata*>>& out) const;
  // Allocating convenience wrapper (tests, API boundaries).
  std::vector<std::pair<PacketId, const PacketMetadata*>> changed_since(Time since) const;

  // Wire size of one record.
  static Bytes record_bytes(const PacketMetadata& meta);

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < occupied_.size(); ++i) fn(occupied_[i], records_[i]);
  }

  // Snapshot/restore: serializes the packed record order exactly (it drives
  // the changed_since output order, whose stable-sort tie-break is
  // behavioral) and every stamp, but no generation: load() numbers the
  // records afresh, and the memo they key restores cold.
  void save(BinWriter& out) const;
  void load(BinReader& in);

 private:
  std::size_t record_index(PacketId id) const {
    return static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]);
  }
  // Ensures a record exists and is marked occupied; returns it.
  PacketMetadata& materialize(PacketId id);

  // Packed live records; records_[k] belongs to packet occupied_[k]. Only
  // known packets carry a record, so the store never zero-initializes a
  // slot-per-packet-per-node slab.
  std::vector<PacketMetadata> records_;
  std::vector<PacketId> occupied_;
  std::vector<std::int32_t> pos_;  // id -> index into records_/occupied_, -1 = absent
  std::uint64_t next_generation_ = 0;
  static const std::vector<ReplicaEstimate> kEmpty;
};

}  // namespace rapid
