// Text serialization of multi-day contact traces, so generated DieselNet
// traces can be inspected, archived, and replayed — the same role the
// published UMass trace files play for the paper.
//
// Format (line oriented, '#' comments allowed):
//
//   rapid-trace v1
//   fleet <N>
//   day <duration_seconds> active <id> <id> ...
//   meet <a> <b> <time_seconds> <bytes>
//   ...
//   end
//
// Each `day` block runs until its `end`. The reader is strict: truncated or
// over-long lines, duplicate `fleet` declarations, out-of-range nodes/times,
// and non-monotonic `meet` timestamps within a day are all rejected with a
// line-numbered error instead of silently accepted — replayed days feed the
// streaming mobility path (mobility/mobility_model.h), whose time-order
// contract must hold at the source.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mobility/dieselnet.h"

namespace rapid {

class BinReader;  // util/binio.h
class BinWriter;

void write_trace(std::ostream& os, const DieselNetTrace& trace);
bool write_trace_file(const std::string& path, const DieselNetTrace& trace);

// Throws std::runtime_error with a line-numbered message on malformed input.
DieselNetTrace read_trace(std::istream& is);
DieselNetTrace read_trace_file(const std::string& path);

// Resumable tail reader over a live-appended contact trace, feeding the
// online service engine (src/service). Each poll() re-opens the file, seeks
// to the last parsed offset, and consumes every *complete* line appended
// since — a trailing line without its newline yet (a writer mid-append)
// stays pending and is re-read whole on the next poll. Parsing mirrors
// read_trace exactly: same keywords, same validations, same line-numbered
// errors against the absolute line number in the file. The live feed is one
// day block (`day` opens it, `end` closes the stream for good); a second
// day block or content after `end` is rejected.
class TraceTailCursor {
 public:
  explicit TraceTailCursor(std::string path);

  // Consecutive open failures tolerated on a file that opened fine before
  // (an NFS hiccup, a log rotation in flight): poll() reports 0 new contacts
  // and retries next time. The budget resets on any successful open; a file
  // that NEVER opened, or one that stays unopenable past the budget, still
  // throws — a wrong path must not look like a quiet feed.
  static constexpr int kMaxTransientOpenFailures = 5;

  // Parses everything complete and new, appending meetings to `out` in file
  // (= time) order; returns how many were appended. Non-blocking: returns 0
  // when nothing complete arrived. A final line without its newline is a
  // writer mid-append and waits for the next poll, unless the caller knows
  // the writer is done (`file_complete`), as read_trace does. Throws
  // std::runtime_error on malformed input or when the file cannot be opened
  // (subject to the bounded transient-failure retry above).
  std::size_t poll(std::vector<Meeting>& out, bool file_complete = false);

  const std::string& path() const { return path_; }
  // Byte offset of the first unparsed content (resume point).
  std::uint64_t offset() const { return offset_; }
  bool header_seen() const { return saw_fleet_ && in_day_stream(); }
  int fleet() const { return fleet_; }
  Time day_duration() const { return duration_; }
  const std::vector<NodeId>& active_buses() const { return active_; }
  // True once `end` was read: the feed is over, no further contacts come.
  bool finished() const { return finished_; }
  Time last_meet_time() const { return last_meet_; }

  // Snapshot/restore of the parse progress (offset, line number, day
  // header). The path itself is not stored — the restoring side re-attaches
  // to whatever file it is told to tail.
  void save(BinWriter& out) const;
  void load(BinReader& in);

 private:
  bool in_day_stream() const { return in_day_ || finished_; }
  void parse_line(const std::string& line);

  std::string path_;
  std::uint64_t offset_ = 0;
  int line_no_ = 0;
  // Transient-IO retry state; runtime only, not part of the snapshot.
  bool opened_ok_ = false;
  int open_failures_ = 0;
  bool saw_header_ = false;
  bool saw_fleet_ = false;
  bool in_day_ = false;
  bool finished_ = false;
  int fleet_ = 0;
  Time duration_ = 0;
  Time last_meet_ = 0;
  std::vector<NodeId> active_;
  std::vector<Meeting>* out_ = nullptr;  // poll()'s sink, during parse only
};

}  // namespace rapid
