#include "runner/serve_run.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/utility.h"
#include "dtn/workload.h"
#include "mobility/trace_io.h"
#include "runner/figures.h"
#include "service/service_engine.h"
#include "service/supervise.h"
#include "util/rng.h"

namespace rapid::runner {
namespace {

struct Query {
  enum class Kind { kDelay, kUtility, kReplicas, kStats };
  Time at = 0;
  Kind kind = Kind::kStats;
  PacketId packet = kNoPacket;
};

// `at <time> delay|utility|replicas <id>` / `at <time> stats`, '#' comments,
// times non-decreasing (queries run in script order as the clock advances).
std::vector<Query> read_queries(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open queries file: " + path);
  std::vector<Query> out;
  std::string line;
  int line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    const std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    std::istringstream ss{std::string(sv)};
    std::string at_kw, kind;
    Query q;
    if (!(ss >> at_kw >> q.at >> kind) || at_kw != "at")
      throw std::runtime_error("queries line " + std::to_string(line_no) +
                               ": expected 'at <time> <kind> [packet]'");
    if (kind == "delay") q.kind = Query::Kind::kDelay;
    else if (kind == "utility") q.kind = Query::Kind::kUtility;
    else if (kind == "replicas") q.kind = Query::Kind::kReplicas;
    else if (kind == "stats") q.kind = Query::Kind::kStats;
    else
      throw std::runtime_error("queries line " + std::to_string(line_no) +
                               ": unknown query kind '" + kind + "'");
    if (q.kind != Query::Kind::kStats && !(ss >> q.packet))
      throw std::runtime_error("queries line " + std::to_string(line_no) +
                               ": query needs a packet id");
    std::string extra;
    if (ss >> extra)
      throw std::runtime_error("queries line " + std::to_string(line_no) +
                               ": trailing garbage '" + extra + "'");
    if (!out.empty() && q.at < out.back().at)
      throw std::runtime_error("queries line " + std::to_string(line_no) +
                               ": times must be non-decreasing");
    out.push_back(q);
  }
  return out;
}

struct TraceHeader {
  int fleet = 0;
  Time duration = 0;
  std::vector<NodeId> active;
};

// Reads just enough of the trace to learn the fleet size and day horizon the
// engine and workload need up front. With --follow the writer may not have
// gotten that far yet, so we wait for the header to appear.
TraceHeader scan_header(const std::string& path, bool follow) {
  TraceTailCursor cursor(path);
  std::vector<Meeting> sink;
  while (true) {
    cursor.poll(sink, !follow);
    if (cursor.fleet() > 0 && cursor.day_duration() > 0)
      return {cursor.fleet(), cursor.day_duration(), cursor.active_buses()};
    if (!follow)
      throw std::runtime_error("trace " + path + " has no 'fleet'/'day' header");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

std::string format_time(Time t) {
  std::ostringstream os;
  os << t;
  return os.str();
}

// Advances through periodic checkpoint marks on the way to each target time.
class ServeDriver {
 public:
  ServeDriver(ServiceEngine& engine, Time snap_every, std::string snap_dir)
      : engine_(engine), snap_every_(snap_every), snap_dir_(std::move(snap_dir)) {
    if (snap_every_ > 0) {
      // First mark strictly after the clock (a restored engine resumes past
      // the checkpoints the saved run already wrote).
      next_snap_ = snap_every_;
      while (next_snap_ <= engine_.advanced_to()) next_snap_ += snap_every_;
    }
  }

  void drive_to(Time t) {
    while (snap_every_ > 0 && next_snap_ <= t) {
      engine_.advance_to(next_snap_);
      const std::string path = snap_dir_ + "/snapshot-" + format_time(next_snap_) + ".bin";
      const std::uint64_t bytes = engine_.snapshot(path);
      std::cout << "t=" << next_snap_ << " snapshot " << path << " bytes=" << bytes << "\n";
      next_snap_ += snap_every_;
    }
    engine_.advance_to(t);
  }

 private:
  ServiceEngine& engine_;
  Time snap_every_;
  std::string snap_dir_;
  Time next_snap_ = 0;
};

void execute(ServeDriver& driver, ServiceEngine& engine, const Query& q) {
  if (q.at < engine.advanced_to()) return;  // answered before the restore point
  driver.drive_to(q.at);
  std::cout << std::setprecision(17);
  switch (q.kind) {
    case Query::Kind::kDelay:
      std::cout << "t=" << q.at << " delay packet=" << q.packet
                << " value=" << engine.query_delay(q.packet) << "\n";
      break;
    case Query::Kind::kUtility:
      std::cout << "t=" << q.at << " utility packet=" << q.packet
                << " value=" << engine.query_utility(q.packet) << "\n";
      break;
    case Query::Kind::kReplicas: {
      const PacketStatus status = engine.query_status(q.packet);
      std::cout << "t=" << q.at << " replicas packet=" << q.packet
                << " count=" << status.replicas << " delivered=" << (status.delivered ? 1 : 0);
      if (status.delivered) std::cout << " delivered_at=" << status.delivery_time;
      std::cout << "\n";
      break;
    }
    case Query::Kind::kStats: {
      const FleetStats stats = engine.stats();
      std::cout << "t=" << q.at << " stats meetings=" << stats.meetings
                << " buffered=" << stats.buffered_copies << " bytes=" << stats.buffered_bytes
                << " delivered=" << stats.delivered << "\n";
      break;
    }
  }
}

}  // namespace

int run_serve_main(const Options& options) {
  try {
    const std::string trace_path = options.get_string("trace", "");
    if (trace_path.empty() || trace_path == "true") {
      std::cerr << "serve needs a contact trace: rapid_bench serve --trace=PATH\n";
      return 1;
    }
    const bool follow = options.get_bool("follow", false);

    const std::string protocol_name = options.get_string("protocol", "rapid");
    const std::optional<ProtocolKind> protocol = protocol_from_string(protocol_name);
    if (!protocol) {
      std::cerr << "unknown protocol '" << protocol_name << "'\n";
      return 1;
    }
    const std::string metric_name = options.get_string("metric", "avg-delay");
    const std::optional<RoutingMetric> metric = routing_metric_from_string(metric_name);
    if (!metric) {
      std::cerr << "unknown metric '" << metric_name << "'\n";
      return 1;
    }

    const TraceHeader header = scan_header(trace_path, follow);

    // The workload is a pure function of the trace header and the flags, so
    // save and restore sides derive the identical pool (the snapshot's
    // config fingerprint enforces it).
    WorkloadConfig wl;
    wl.packets_per_period_per_pair = options.get_double("load", 1.0);
    wl.packet_size = static_cast<Bytes>(options.get_int("packet-kb", 1)) * 1024;
    wl.duration = header.duration;
    const double deadline = options.get_double("deadline", 0.0);
    if (deadline > 0) wl.deadline = deadline;
    Rng rng(static_cast<std::uint64_t>(options.get_int("seed", 1)));
    PacketPool workload = generate_workload(wl, header.active, rng);

    ServiceConfig config;
    config.num_nodes = header.fleet;
    config.protocol = *protocol;
    config.params.metric = *metric;
    const auto buffer_kb = options.get_int("buffer-kb", 0);
    config.buffer_capacity = buffer_kb > 0 ? static_cast<Bytes>(buffer_kb) * 1024 : -1;
    config.horizon = header.duration;

    const std::string restore_path = options.get_string("restore", "");
    const bool supervise = options.get_bool("supervise", false);
    const std::string snapshot_dir = options.get_string("snapshot-dir", ".");
    std::unique_ptr<ServiceEngine> engine;
    if (!restore_path.empty()) {
      engine = ServiceEngine::restore(restore_path, config, std::move(workload), trace_path);
    } else if (supervise) {
      // Crash recovery: resume from the newest snapshot that validates
      // (corrupt or torn ones are skipped), else start fresh.
      SuperviseResult recovered =
          restore_latest_valid(snapshot_dir, config, workload, trace_path);
      for (const std::string& skip : recovered.skipped)
        std::cerr << "supervise: skipping snapshot " << skip << "\n";
      if (recovered.engine != nullptr) {
        std::cout << "supervise: restored " << recovered.restored_from << "\n";
        engine = std::move(recovered.engine);
      } else {
        std::cout << "supervise: no valid snapshot in " << snapshot_dir
                  << ", starting fresh\n";
        engine = std::make_unique<ServiceEngine>(config, std::move(workload));
        engine->ingest_file_tail(trace_path);
      }
    } else {
      engine = std::make_unique<ServiceEngine>(config, std::move(workload));
      engine->ingest_file_tail(trace_path);
    }

    std::vector<Query> queries;
    const std::string queries_path = options.get_string("queries", "");
    if (!queries_path.empty() && queries_path != "true") queries = read_queries(queries_path);

    ServeDriver driver(*engine, options.get_double("snapshot-every", 0.0),
                       snapshot_dir);

    std::cout << "serve: fleet=" << header.fleet << " horizon=" << header.duration
              << " protocol=" << to_string(*protocol) << " packets=" << engine->workload().size()
              << (restore_path.empty() ? "" : " restored_at=" + format_time(engine->advanced_to()))
              << "\n";

    std::size_t qi = 0;
    bool feed_done = !engine->tailing();
    while (!feed_done) {
      const std::size_t added = engine->poll_tail(!follow);
      if (engine->tail()->finished()) feed_done = true;
      // A query at time t is safe once every contact before t has certainly
      // arrived: ingest times are monotonic, so anything strictly below the
      // newest ingested time is complete (and once the feed ends, all of it).
      while (qi < queries.size() &&
             (feed_done || queries[qi].at < engine->last_ingested())) {
        execute(driver, *engine, queries[qi]);
        ++qi;
      }
      if (feed_done) break;
      if (added == 0) {
        // Without --follow the file is read as complete: a feed that stops
        // before `end` is a truncated trace, as it is to read_trace.
        if (!follow)
          throw std::runtime_error("trace " + trace_path +
                                   " has no complete 'end' line (parsed to byte " +
                                   std::to_string(engine->tail()->offset()) +
                                   "): without --follow the file must be complete");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    for (; qi < queries.size(); ++qi) execute(driver, *engine, queries[qi]);

    // Final drain: run every remaining queued contact to the horizon.
    const Time end_time = std::max({engine->advanced_to(), engine->last_ingested(),
                                    header.duration});
    driver.drive_to(end_time);

    const SimResult result = engine->report();
    std::cout << std::setprecision(17) << "final: t=" << engine->advanced_to()
              << " delivered=" << result.delivered << "/" << result.total_packets
              << " rate=" << result.delivery_rate << " avg_delay=" << result.avg_delay
              << " meetings=" << result.meetings << "\n";

    const std::string final_state = options.get_string("final-state", "");
    if (!final_state.empty() && final_state != "true") {
      const std::uint64_t bytes = engine->snapshot(final_state);
      std::cout << "final-state " << final_state << " bytes=" << bytes << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rapid::runner
