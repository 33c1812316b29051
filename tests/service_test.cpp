// ServiceEngine: incremental ingest, mid-stream queries, snapshot/restore.
//
// The load-bearing contracts locked in here:
//   * queries and interim reports are observationally pure — a run peppered
//     with them finishes bit-identically to one left alone;
//   * snapshot -> restore -> snapshot reproduces the exact bytes;
//   * the snapshot format itself is frozen by a golden file (regenerate with
//     RAPID_REGEN_GOLDEN=1 after a deliberate format bump — and bump the
//     version tag when you do).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mobility/trace_io.h"
#include "runner/serve_run.h"
#include "service/service_engine.h"
#include "util/strings.h"

namespace rapid {
namespace {

PacketPool tiny_workload() {
  PacketPool pool;
  const auto add = [&pool](NodeId src, NodeId dst, Time created) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = 1024;
    p.created = created;
    pool.add(p);
  };
  add(0, 3, 0);
  add(1, 2, 5);
  add(2, 0, 10);
  add(3, 1, 15);
  add(0, 2, 20);
  add(1, 3, 30);
  return pool;
}

std::vector<ContactEvent> tiny_contacts() {
  return {{0, 1, 60, 32768},  {1, 2, 120, 32768}, {2, 3, 180, 16384},
          {0, 3, 240, 32768}, {1, 3, 300, 16384}, {0, 2, 360, 32768},
          {2, 3, 420, 32768}, {0, 1, 480, 16384}};
}

ServiceConfig tiny_config(ProtocolKind protocol = ProtocolKind::kRapid) {
  ServiceConfig config;
  config.num_nodes = 4;
  config.protocol = protocol;
  config.horizon = 600;
  return config;
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.delivery_rate, b.delivery_rate);
  EXPECT_EQ(a.avg_delay, b.avg_delay);
  EXPECT_EQ(a.max_delay, b.max_delay);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.meetings, b.meetings);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

TEST(ServiceEngine, IngestAdvanceAndQueryMidStream) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) engine.ingest(c);
  engine.advance_to(200);

  // Packet 0 (0 -> 3) should have replicated off its source by now.
  const PacketStatus status = engine.query_status(0);
  EXPECT_GE(status.replicas, 1);
  const double delay = engine.query_delay(0);
  EXPECT_GT(delay, 0);
  const double utility = engine.query_utility(0);
  EXPECT_LE(utility, 0);  // avg-delay metric: U(i) = -D(i)

  const FleetStats mid = engine.stats();
  EXPECT_DOUBLE_EQ(mid.now, 200);
  EXPECT_GT(mid.buffered_copies, 0u);

  engine.advance_to(600);
  const FleetStats done = engine.stats();
  EXPECT_GT(done.delivered, 0u);
  EXPECT_GE(done.delivered, mid.delivered);
}

TEST(ServiceEngine, IngestValidatesItsInputs) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  EXPECT_THROW(engine.ingest({0, 9, 10, 100}), std::runtime_error);   // node range
  EXPECT_THROW(engine.ingest({2, 2, 10, 100}), std::runtime_error);   // self contact
  EXPECT_THROW(engine.ingest({0, 1, 10, -5}), std::runtime_error);    // capacity
  engine.ingest({0, 1, 50, 100});
  EXPECT_THROW(engine.ingest({0, 1, 40, 100}), std::runtime_error);   // non-monotonic
  engine.advance_to(100);
  EXPECT_THROW(engine.ingest({0, 1, 80, 100}), std::runtime_error);   // behind the clock
  EXPECT_THROW(engine.advance_to(50), std::runtime_error);            // clock rewind
}

TEST(ServiceEngine, QueriesAndInterimReportsDoNotPerturbTheRun) {
  // Run A: driven straight to the end, untouched.
  ServiceEngine a(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) a.ingest(c);
  a.advance_to(600);

  // Run B: same inputs, but interrogated at every step of the way.
  ServiceEngine b(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) b.ingest(c);
  for (Time t = 100; t <= 600; t += 100) {
    b.advance_to(t);
    const SimResult interim = b.report();
    EXPECT_EQ(interim.total_packets, b.workload().size());
    for (PacketId id = 0; id < static_cast<PacketId>(b.workload().size()); ++id) {
      b.query_status(id);
      b.query_delay(id);
      b.query_utility(id);
    }
    b.stats();
  }

  // Interim reads never double-count into the final report, and the queried
  // run's final state is byte-identical to the untouched one's.
  expect_same_result(a.report(), b.report());
  const std::string path_a = testing::TempDir() + "/service_pure_a.bin";
  const std::string path_b = testing::TempDir() + "/service_pure_b.bin";
  a.snapshot(path_a);
  b.snapshot(path_b);
  EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
}

// A preset horizon with ingest interleaved with advance_to: every contact
// arrives after the engine has drained the ingest queue, and all of them
// fall inside the horizon, so advance_to never moves it. The run must match
// the same contacts ingested up front.
TEST(ServiceEngine, InterleavedIngestUnderPresetHorizonMatchesUpFrontIngest) {
  ServiceEngine up_front(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) up_front.ingest(c);
  up_front.advance_to(600);

  ServiceEngine interleaved(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) {
    ASSERT_LT(c.time, tiny_config().horizon);
    interleaved.ingest(c);
    interleaved.advance_to(c.time);
  }
  interleaved.advance_to(600);

  EXPECT_EQ(interleaved.sim().meetings_run(), static_cast<int>(tiny_contacts().size()));
  EXPECT_EQ(up_front.sim().meetings_run(), interleaved.sim().meetings_run());
  const std::string path_a = testing::TempDir() + "/service_preset_up_front.bin";
  const std::string path_b = testing::TempDir() + "/service_preset_interleaved.bin";
  up_front.snapshot(path_a);
  interleaved.snapshot(path_b);
  EXPECT_EQ(file_bytes(path_a), file_bytes(path_b));
  expect_same_result(up_front.finish(), interleaved.finish());
}

TEST(ServiceEngine, SnapshotRestoreSnapshotReproducesTheBytes) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) engine.ingest(c);
  engine.advance_to(250);  // mid-run: live buffers, pending ingest queue

  const std::string first = testing::TempDir() + "/service_rt_1.bin";
  const std::string second = testing::TempDir() + "/service_rt_2.bin";
  engine.snapshot(first);
  const auto restored = ServiceEngine::restore(first, tiny_config(), tiny_workload());
  EXPECT_DOUBLE_EQ(restored->advanced_to(), 250);
  restored->snapshot(second);
  EXPECT_EQ(file_bytes(first), file_bytes(second));
}

TEST(ServiceEngine, RestoreRefusesAMismatchedConfig) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  engine.ingest({0, 1, 60, 32768});
  engine.advance_to(100);
  const std::string path = testing::TempDir() + "/service_fp.bin";
  engine.snapshot(path);

  EXPECT_THROW(ServiceEngine::restore(path, tiny_config(ProtocolKind::kEpidemic),
                                      tiny_workload()),
               std::runtime_error);
  PacketPool different = tiny_workload();
  Packet extra;
  extra.src = 0;
  extra.dst = 1;
  extra.size = 1024;
  extra.created = 40;
  different.add(extra);
  EXPECT_THROW(ServiceEngine::restore(path, tiny_config(), std::move(different)),
               std::runtime_error);
}

TEST(ServiceEngine, DelayQueriesNeedARapidProtocol) {
  ServiceEngine engine(tiny_config(ProtocolKind::kEpidemic), tiny_workload());
  engine.ingest({0, 1, 60, 32768});
  engine.advance_to(100);
  EXPECT_THROW(engine.query_delay(0), std::runtime_error);
  EXPECT_THROW(engine.query_utility(0), std::runtime_error);
  // Ground-truth queries are protocol-independent.
  EXPECT_GE(engine.query_status(0).replicas, 1);
  EXPECT_GT(engine.stats().buffered_copies, 0u);
}

TEST(ServiceEngine, TailedFileFeedsTheEngine) {
  const std::string trace = testing::TempDir() + "/service_tail_trace.txt";
  {
    std::ofstream f(trace, std::ios::trunc | std::ios::binary);
    f << "rapid-trace v1\nfleet 4\nday 600 active 0 1 2 3\n";
    for (const ContactEvent& c : tiny_contacts())
      f << "meet " << c.a << ' ' << c.b << ' ' << c.time << ' ' << c.capacity << '\n';
    f << "end\n";
  }
  ServiceEngine tailed(tiny_config(), tiny_workload());
  tailed.ingest_file_tail(trace);
  EXPECT_EQ(tailed.poll_tail(), tiny_contacts().size());
  EXPECT_TRUE(tailed.tail()->finished());
  tailed.advance_to(600);

  ServiceEngine pushed(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) pushed.ingest(c);
  pushed.advance_to(600);
  expect_same_result(tailed.report(), pushed.report());
}

// `rapid_bench serve` without --follow reads the trace as a complete file. A
// feed that stops before `end` (no `end` line, and the last meet line lacks
// its newline) is refused, as read_trace refuses it, instead of being served
// one meeting short; a complete file is served to its last line, newline or
// not.
TEST(ServiceEngine, ServeWithoutFollowRejectsATraceThatStopsBeforeEnd) {
  const std::string trace = testing::TempDir() + "/service_serve_truncated.txt";
  const std::string body =
      "rapid-trace v1\nfleet 4\nday 600 active 0 1 2 3\n"
      "meet 0 1 60 32768\nmeet 1 2 120 32768";
  std::ofstream(trace, std::ios::trunc | std::ios::binary) << body;
  std::istringstream whole(body);
  EXPECT_THROW(read_trace(whole), std::runtime_error);

  const char* argv[] = {"rapid_bench", "serve"};
  Options options(2, const_cast<char**>(argv));
  options.set("trace", trace);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int truncated_exit = runner::run_serve_main(options);
  testing::internal::GetCapturedStdout();
  const std::string error = testing::internal::GetCapturedStderr();
  EXPECT_EQ(truncated_exit, 1);
  EXPECT_NE(error.find("has no complete 'end' line"), std::string::npos) << error;

  // Completing the file serves both meetings, whether or not the final
  // `end` carries its newline (read_trace accepts both).
  for (const char* ending : {"\nend", "\nend\n"}) {
    std::ofstream(trace, std::ios::trunc | std::ios::binary) << body << ending;
    testing::internal::CaptureStdout();
    const int complete_exit = runner::run_serve_main(options);
    const std::string output = testing::internal::GetCapturedStdout();
    EXPECT_EQ(complete_exit, 0) << "ending " << testing::PrintToString(ending);
    EXPECT_NE(output.find("meetings=2"), std::string::npos) << output;
  }
}

// Freezes snapshot format v3 (CRC32-footed RSNP, sparse RAPID sections):
// any byte-level change to the serialization is a format break and must bump
// kSnapshotVersion. Regenerate deliberately:
//   RAPID_REGEN_GOLDEN=1 ./rapid_tests --gtest_filter='*GoldenSnapshot*'
TEST(ServiceEngine, GoldenSnapshotBytesAreStable) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) engine.ingest(c);
  engine.advance_to(250);
  const std::string path = testing::TempDir() + "/service_golden.bin";
  engine.snapshot(path);
  const std::string bytes = file_bytes(path);

  const std::string golden_path =
      std::string(RAPID_SOURCE_DIR) + "/tests/golden/service_snapshot_v3.bin";
  if (std::getenv("RAPID_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << bytes;
    return;
  }
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, file_bytes(golden_path))
      << "snapshot bytes drifted from tests/golden/service_snapshot_v3.bin "
         "(format change? bump kSnapshotVersion and regenerate with "
         "RAPID_REGEN_GOLDEN=1)";
}

// A v2 file (the same engine state as the v3 golden, dense RAPID sections) is
// CRC-valid but refused by version before any section is parsed.
TEST(ServiceEngine, RestoreRefusesAnOlderSnapshotVersion) {
  const std::string v2 = std::string(RAPID_SOURCE_DIR) + "/tests/golden/service_snapshot_v2.bin";
  try {
    ServiceEngine::restore(v2, tiny_config(), tiny_workload());
    FAIL() << "a v2 snapshot was restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot version 2 (this build reads 3)"),
              std::string::npos)
        << e.what();
  }
}

// A snapshot stores what the routers hold, so a RAPID fleet that has met no
// one snapshots in a few bytes a node; n-length tables per router would make
// it quadratic in the fleet (the dense layout wrote ~49 MB here).
TEST(ServiceEngine, FreshRapidSnapshotGrowsLinearlyWithTheFleet) {
  constexpr int kFleet = 1000;
  ServiceConfig config = tiny_config();
  config.num_nodes = kFleet;
  ServiceEngine engine(config, PacketPool{});
  const std::string path = testing::TempDir() + "/service_fresh_fleet.bin";
  const std::uint64_t bytes = engine.snapshot(path);
  EXPECT_LT(bytes, std::uint64_t{1000} * kFleet);
}

}  // namespace
}  // namespace rapid
