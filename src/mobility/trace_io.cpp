#include "mobility/trace_io.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"
#include "util/binio.h"
#include "util/strings.h"

namespace rapid {

void write_trace(std::ostream& os, const DieselNetTrace& trace) {
  // Full round-trip precision for meeting times.
  os << std::setprecision(17);
  os << "rapid-trace v1\n";
  os << "fleet " << trace.config.fleet_size << "\n";
  for (const DayTrace& day : trace.days) {
    os << "day " << day.schedule.duration << " active";
    for (NodeId bus : day.active_buses) os << ' ' << bus;
    os << '\n';
    for (const Meeting& m : day.schedule.meetings()) {
      os << "meet " << m.a << ' ' << m.b << ' ' << m.time << ' ' << m.capacity << '\n';
    }
    os << "end\n";
  }
}

bool write_trace_file(const std::string& path, const DieselNetTrace& trace) {
  std::ofstream f(path);
  if (!f) return false;
  write_trace(f, trace);
  return static_cast<bool>(f);
}

namespace {

[[noreturn]] void fail(int line_no, const std::string& why) {
  std::ostringstream os;
  os << "trace parse error at line " << line_no << ": " << why;
  throw std::runtime_error(os.str());
}

// Truncated lines fail their field extraction; this catches the opposite
// defect — extra fields silently riding along on an otherwise valid line.
void reject_trailing(std::istringstream& ss, int line_no, const char* keyword) {
  std::string extra;
  if (ss >> extra)
    fail(line_no, std::string("trailing garbage '") + extra + "' after '" + keyword +
                      "' line");
}

}  // namespace

DieselNetTrace read_trace(std::istream& is) {
  DieselNetTrace trace;
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  bool saw_fleet = false;
  bool in_day = false;
  DayTrace day;
  Time last_meet_time = 0;

  while (std::getline(is, line)) {
    ++line_no;
    std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;

    if (!saw_header) {
      if (sv != "rapid-trace v1") fail(line_no, "missing 'rapid-trace v1' header");
      saw_header = true;
      continue;
    }
    std::istringstream ss{std::string(sv)};
    std::string keyword;
    ss >> keyword;
    if (keyword == "fleet") {
      if (saw_fleet) fail(line_no, "duplicate fleet line");
      int n = 0;
      if (!(ss >> n) || n < 2) fail(line_no, "bad fleet size");
      reject_trailing(ss, line_no, "fleet");
      trace.config.fleet_size = n;
      saw_fleet = true;
    } else if (keyword == "day") {
      if (in_day) fail(line_no, "nested day block");
      if (!saw_fleet) fail(line_no, "day before fleet");
      double duration = 0;
      std::string active_kw;
      if (!(ss >> duration >> active_kw) || active_kw != "active" || duration <= 0)
        fail(line_no, "bad day line");
      day = DayTrace{};
      day.schedule.num_nodes = trace.config.fleet_size;
      day.schedule.duration = duration;
      int bus = 0;
      while (ss >> bus) {
        if (bus < 0 || bus >= trace.config.fleet_size) fail(line_no, "active bus out of range");
        day.active_buses.push_back(bus);
      }
      if (!ss.eof()) fail(line_no, "malformed active bus list");
      if (day.active_buses.size() < 2) fail(line_no, "day needs >= 2 active buses");
      in_day = true;
      last_meet_time = 0;
    } else if (keyword == "meet") {
      if (!in_day) fail(line_no, "meet outside day block");
      int a = 0, b = 0;
      double t = 0;
      long long bytes = 0;
      if (!(ss >> a >> b >> t >> bytes)) fail(line_no, "truncated or malformed meet line");
      reject_trailing(ss, line_no, "meet");
      if (t < 0 || t > day.schedule.duration) fail(line_no, "meeting time out of range");
      if (t < last_meet_time) {
        std::ostringstream why;
        why << "non-monotonic meeting time " << t << " after " << last_meet_time
            << " (trace days must be time-ordered)";
        fail(line_no, why.str());
      }
      if (bytes < 0) fail(line_no, "negative capacity");
      if (a == b) fail(line_no, "self meeting");
      if (a < 0 || b < 0 || a >= trace.config.fleet_size || b >= trace.config.fleet_size)
        fail(line_no, "meeting node out of range");
      day.schedule.add(a, b, t, bytes);
      last_meet_time = t;
    } else if (keyword == "end") {
      if (!in_day) fail(line_no, "end outside day block");
      reject_trailing(ss, line_no, "end");
      // Meet lines are enforced monotonic, so this is an O(1) no-op that
      // keeps the schedule's sorted invariant explicit.
      day.schedule.sort();
      trace.days.push_back(std::move(day));
      in_day = false;
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_header) fail(line_no, "empty trace");
  if (in_day) fail(line_no, "unterminated day block");
  return trace;
}

DieselNetTrace read_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(f);
}

TraceTailCursor::TraceTailCursor(std::string path) : path_(std::move(path)) {}

void TraceTailCursor::parse_line(const std::string& line) {
  const std::string_view sv = trim(line);
  if (sv.empty() || sv.front() == '#') return;

  if (!saw_header_) {
    if (sv != "rapid-trace v1") fail(line_no_, "missing 'rapid-trace v1' header");
    saw_header_ = true;
    return;
  }
  std::istringstream ss{std::string(sv)};
  std::string keyword;
  ss >> keyword;
  if (finished_) fail(line_no_, "content after 'end' in tailed trace");
  if (keyword == "fleet") {
    if (saw_fleet_) fail(line_no_, "duplicate fleet line");
    int n = 0;
    if (!(ss >> n) || n < 2) fail(line_no_, "bad fleet size");
    reject_trailing(ss, line_no_, "fleet");
    fleet_ = n;
    saw_fleet_ = true;
  } else if (keyword == "day") {
    if (in_day_) fail(line_no_, "nested day block");
    if (!saw_fleet_) fail(line_no_, "day before fleet");
    double duration = 0;
    std::string active_kw;
    if (!(ss >> duration >> active_kw) || active_kw != "active" || duration <= 0)
      fail(line_no_, "bad day line");
    active_.clear();
    int bus = 0;
    while (ss >> bus) {
      if (bus < 0 || bus >= fleet_) fail(line_no_, "active bus out of range");
      active_.push_back(bus);
    }
    if (!ss.eof()) fail(line_no_, "malformed active bus list");
    if (active_.size() < 2) fail(line_no_, "day needs >= 2 active buses");
    duration_ = duration;
    in_day_ = true;
    last_meet_ = 0;
  } else if (keyword == "meet") {
    if (!in_day_) fail(line_no_, "meet outside day block");
    int a = 0, b = 0;
    double t = 0;
    long long bytes = 0;
    if (!(ss >> a >> b >> t >> bytes)) fail(line_no_, "truncated or malformed meet line");
    reject_trailing(ss, line_no_, "meet");
    if (t < 0 || t > duration_) fail(line_no_, "meeting time out of range");
    if (t < last_meet_) {
      std::ostringstream why;
      why << "non-monotonic meeting time " << t << " after " << last_meet_
          << " (trace days must be time-ordered)";
      fail(line_no_, why.str());
    }
    if (bytes < 0) fail(line_no_, "negative capacity");
    if (a == b) fail(line_no_, "self meeting");
    if (a < 0 || b < 0 || a >= fleet_ || b >= fleet_)
      fail(line_no_, "meeting node out of range");
    out_->push_back(Meeting{a, b, t, bytes});
    last_meet_ = t;
  } else if (keyword == "end") {
    if (!in_day_) fail(line_no_, "end outside day block");
    reject_trailing(ss, line_no_, "end");
    in_day_ = false;
    finished_ = true;
  } else {
    fail(line_no_, "unknown keyword '" + keyword + "'");
  }
}

std::size_t TraceTailCursor::poll(std::vector<Meeting>& out, bool file_complete) {
  std::ifstream f(path_, std::ios::binary);
  if (!f) {
    // A file we have read from before that suddenly refuses to open is most
    // likely a transient IO blip; back off (the caller polls again later)
    // within a bounded budget rather than killing a long-lived service.
    if (opened_ok_ && ++open_failures_ <= kMaxTransientOpenFailures) {
      RAPID_OBS_INC(kFaultTailRetries);
      return 0;
    }
    if (opened_ok_)
      throw std::runtime_error("cannot open trace file after " +
                               std::to_string(open_failures_) +
                               " consecutive attempts: " + path_);
    throw std::runtime_error("cannot open trace file: " + path_);
  }
  opened_ok_ = true;
  open_failures_ = 0;
  // A file shorter than the resume offset means it was truncated or replaced
  // since the last poll. Seeking past EOF succeeds silently, so without this
  // check a truncated-then-regrown file would be resumed mid-record and parsed
  // as garbage (or worse, as plausible meetings). Fail loudly instead.
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(f.tellg());
  if (size < offset_)
    throw std::runtime_error(
        path_ + ":" + std::to_string(line_no_) + ": trace file truncated below the " +
        std::to_string(line_no_) + " line(s) already consumed (size " + std::to_string(size) +
        " < resume offset " + std::to_string(offset_) + ")");
  f.seekg(static_cast<std::streamoff>(offset_));
  if (!f) throw std::runtime_error("cannot seek in trace file: " + path_);

  const std::size_t before = out.size();
  out_ = &out;
  std::string line;
  while (std::getline(f, line)) {
    // A final line without its newline is a writer mid-append, left whole for
    // the next poll unless the file is complete. getline sets eofbit (without
    // failbit) only when it stopped at end-of-file, not at a delimiter.
    const bool unterminated = f.eof();
    if (unterminated && !file_complete) break;
    ++line_no_;
    offset_ += static_cast<std::uint64_t>(line.size()) + (unterminated ? 0 : 1);
    try {
      parse_line(line);
    } catch (...) {
      out_ = nullptr;
      throw;
    }
  }
  out_ = nullptr;
  return out.size() - before;
}

void TraceTailCursor::save(BinWriter& out) const {
  out.tag("TAIL");
  out.u64(offset_);
  out.i64(line_no_);
  out.u8(saw_header_ ? 1 : 0);
  out.u8(saw_fleet_ ? 1 : 0);
  out.u8(in_day_ ? 1 : 0);
  out.u8(finished_ ? 1 : 0);
  out.i64(fleet_);
  out.f64(duration_);
  out.f64(last_meet_);
  out.u64(active_.size());
  for (NodeId bus : active_) out.i64(bus);
}

void TraceTailCursor::load(BinReader& in) {
  in.expect_tag("TAIL");
  offset_ = in.u64();
  line_no_ = static_cast<int>(in.i64());
  saw_header_ = in.u8() != 0;
  saw_fleet_ = in.u8() != 0;
  in_day_ = in.u8() != 0;
  finished_ = in.u8() != 0;
  fleet_ = static_cast<int>(in.i64());
  duration_ = in.f64();
  last_meet_ = in.f64();
  active_.resize(in.u64());
  for (NodeId& bus : active_) bus = static_cast<NodeId>(in.i64());
}

}  // namespace rapid
