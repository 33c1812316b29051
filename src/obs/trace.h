// Structured trace layer: fixed-size binary trace events in a ring buffer.
//
// A TraceEvent records one point of the simulation's story — a contact
// opening or closing, a packet being created, copied, delivered, partially
// transferred or dropped, a utility recompute — stamped with *simulation*
// time, never wall time, so a trace is a pure function of the run and two
// traced runs of the same scenario are bit-identical (the determinism
// contract: tracing on or off never changes figure output, it only watches).
//
// The buffer is a pre-allocated ring: emitting is a bounds check, a struct
// store and an index increment. When the ring wraps, the oldest events are
// overwritten and dropped() counts what was lost — a trace is a window, not
// an unbounded log. chronological() unwinds the ring for export
// (obs/trace_export.h renders Chrome trace_event JSON for Perfetto;
// obs/trace_read.h parses that JSON back for tools/trace_query).
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace rapid::obs {

enum class TraceEventKind : std::uint32_t {
  kContactOpen = 0,   // a,b = nodes; value = capacity bytes
  kContactClose = 1,  // a,b = nodes; value = data bytes moved; packet = interrupted flag
  kPacketCreate = 2,  // a = src, b = dst; value = size
  kPacketCopy = 3,    // a = sender, b = receiver (stored, not delivered); value = size
  kPacketDeliver = 4, // a = sender, b = destination; value = delay-free marker (size)
  kPacketPartial = 5, // a = sender, b = receiver; value = bytes burned mid-air
  kPacketDrop = 6,    // a = dropping node; value = size
  kUtilityRecompute = 7,  // a = node; packet = packet id; value = 1 (rate sum)
  kNodeCrash = 8,         // a = node; value = 1 when buffers were dropped
  kNodeRecover = 9,       // a = node (rejoins with stale state)
  kPacketCorrupt = 10,    // a = sender, b = receiver; value = bytes burned
};

// Last enumerator, for exhaustive iteration (obs/trace_read.h).
inline constexpr TraceEventKind kLastTraceEventKind = TraceEventKind::kPacketCorrupt;

const char* trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  Time time = 0;  // simulation seconds
  TraceEventKind kind = TraceEventKind::kContactOpen;
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  PacketId packet = kNoPacket;
  std::int64_t value = 0;
};

class TraceBuffer {
 public:
  // capacity == 0 disables the buffer entirely (enabled() == false and
  // emit() must not be called — the RAPID_OBS_TRACE macro guards this).
  explicit TraceBuffer(std::size_t capacity);

  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }

  void emit(const TraceEvent& e) {
    ring_[next_] = e;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
    ++total_;
  }

  // Events currently held (<= capacity).
  std::size_t size() const { return total_ < capacity_ ? static_cast<std::size_t>(total_) : capacity_; }
  // Events emitted over the buffer's lifetime.
  std::uint64_t total() const { return total_; }
  // Events lost to ring wrap.
  std::uint64_t dropped() const { return total_ <= capacity_ ? 0 : total_ - capacity_; }

  // The held events, oldest first.
  std::vector<TraceEvent> chronological() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;      // slot the next event lands in
  std::uint64_t total_ = 0;   // events ever emitted
};

}  // namespace rapid::obs
