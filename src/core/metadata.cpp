#include "core/metadata.h"

#include <algorithm>
#include <stdexcept>

#include "util/binio.h"
#include "util/slab.h"

namespace rapid {

const std::vector<ReplicaEstimate> MetadataStore::kEmpty;

PacketMetadata& MetadataStore::materialize(PacketId id) {
  if (id < 0) throw std::invalid_argument("MetadataStore: negative packet id");
  std::int32_t& pos = grow_slot(pos_, id, std::int32_t{-1});
  if (pos < 0) {
    pos = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(id);
    records_.emplace_back();
  }
  return records_[static_cast<std::size_t>(pos)];
}

bool MetadataStore::update_replica(PacketId id, const ReplicaEstimate& estimate) {
  PacketMetadata& meta = materialize(id);
  for (ReplicaEstimate& existing : meta.replicas) {
    if (existing.holder == estimate.holder) {
      if (estimate.stamp <= existing.stamp) return false;
      existing = estimate;
      meta.last_changed = std::max(meta.last_changed, estimate.stamp);
      meta.generation = ++next_generation_;
      return true;
    }
  }
  meta.replicas.push_back(estimate);
  meta.last_changed = std::max(meta.last_changed, estimate.stamp);
  meta.generation = ++next_generation_;
  return true;
}

bool MetadataStore::remove_replica(PacketId id, NodeId holder, Time stamp) {
  if (!knows(id)) return false;
  PacketMetadata& meta = records_[record_index(id)];
  auto& replicas = meta.replicas;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i].holder == holder) {
      if (stamp <= replicas[i].stamp) return false;  // we have fresher info
      replicas.erase(replicas.begin() + static_cast<std::ptrdiff_t>(i));
      meta.last_changed = std::max(meta.last_changed, stamp);
      meta.generation = ++next_generation_;
      return true;
    }
  }
  return false;
}

void MetadataStore::forget_packet(PacketId id) {
  if (!knows(id)) return;
  const auto idx = static_cast<std::size_t>(id);
  const auto at = static_cast<std::size_t>(pos_[idx]);
  const std::size_t last = occupied_.size() - 1;
  if (at != last) {
    occupied_[at] = occupied_[last];
    records_[at] = std::move(records_[last]);
    pos_[static_cast<std::size_t>(occupied_[at])] = static_cast<std::int32_t>(at);
  }
  occupied_.pop_back();
  records_.pop_back();
  pos_[idx] = -1;
}

void MetadataStore::changed_since(
    Time since, std::vector<std::pair<PacketId, const PacketMetadata*>>& out) const {
  out.clear();
  for (std::size_t i = 0; i < occupied_.size(); ++i) {
    if (records_[i].last_changed > since) out.emplace_back(occupied_[i], &records_[i]);
  }
}

std::vector<std::pair<PacketId, const PacketMetadata*>> MetadataStore::changed_since(
    Time since) const {
  std::vector<std::pair<PacketId, const PacketMetadata*>> out;
  changed_since(since, out);
  return out;
}

Bytes MetadataStore::record_bytes(const PacketMetadata& meta) {
  return kPacketRecordHeaderBytes +
         kReplicaEntryBytes * static_cast<Bytes>(meta.replicas.size());
}

void MetadataStore::save(BinWriter& out) const {
  out.tag("META");
  out.u64(occupied_.size());
  for (std::size_t i = 0; i < occupied_.size(); ++i) {
    const PacketMetadata& meta = records_[i];
    out.i64(occupied_[i]);
    out.f64(meta.last_changed);
    out.u64(meta.replicas.size());
    for (const ReplicaEstimate& r : meta.replicas) {
      out.i64(r.holder);
      out.f64(r.direct_delay);
      out.f64(r.stamp);
    }
  }
}

void MetadataStore::load(BinReader& in) {
  in.expect_tag("META");
  next_generation_ = 0;  // generations only key the replica-rate memo, which restores cold
  const std::uint64_t count = in.u64();
  records_.clear();
  occupied_.clear();
  records_.reserve(count);
  occupied_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    if (id < 0) BinReader::fail("negative packet id in metadata record");
    PacketMetadata meta;
    meta.last_changed = in.f64();
    meta.generation = ++next_generation_;
    const std::uint64_t replicas = in.u64();
    meta.replicas.reserve(replicas);
    for (std::uint64_t j = 0; j < replicas; ++j) {
      ReplicaEstimate r;
      r.holder = static_cast<NodeId>(in.i64());
      r.direct_delay = in.f64();
      r.stamp = in.f64();
      meta.replicas.push_back(r);
    }
    grow_slot(pos_, id, std::int32_t{-1}) = static_cast<std::int32_t>(occupied_.size());
    occupied_.push_back(id);
    records_.push_back(std::move(meta));
  }
}

}  // namespace rapid
