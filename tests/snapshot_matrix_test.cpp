// Restore-then-continue bit-identity, across every protocol.
//
// For each protocol in the registry: drive a ServiceEngine halfway, snapshot,
// keep driving to the end; then restore a second engine from the mid-run
// snapshot and drive it over the same remaining span. The restored run must
// finish with the exact SimResult (delivery times compared bit-for-bit) and
// the exact final snapshot bytes of the uninterrupted one — RAPID's meeting
// matrices, MaxProp's likelihood vectors, Spray&Wait's copy counts and every
// buffer and RNG stream all have to come back precisely.
//
// A second pass repeats the straight runs on four threads with
// runner::parallel_for: results are independent of the thread count, so
// `rapid_bench serve` pipelines driven under --threads N restore identically
// to serial ones.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dtn/workload.h"
#include "runner/parallel_for.h"
#include "service/service_engine.h"
#include "util/rng.h"

namespace rapid {
namespace {

constexpr Time kHorizon = 1200;
constexpr Time kMidpoint = 600;

const std::vector<ProtocolKind>& all_protocols() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kRapid,    ProtocolKind::kRapidGlobal, ProtocolKind::kRapidLocal,
      ProtocolKind::kMaxProp,  ProtocolKind::kSprayWait,   ProtocolKind::kProphet,
      ProtocolKind::kRandom,   ProtocolKind::kRandomAcks,  ProtocolKind::kEpidemic,
      ProtocolKind::kDirect};
  return kinds;
}

ServiceConfig matrix_config(ProtocolKind protocol, bool faulted = false) {
  ServiceConfig config;
  config.num_nodes = 5;
  config.protocol = protocol;
  // Tight enough that eviction policies run (drop victims are protocol
  // state too), loose enough that traffic still flows.
  config.buffer_capacity = 8 * 1024;
  config.horizon = kHorizon;
  if (faulted) {
    // Crashes straddle the midpoint snapshot, so the fault heap, node-up
    // mask and corruption RNG streams all have to survive restore.
    config.sim.node_faults.mean_uptime = 300;
    config.sim.node_faults.mean_downtime = 80;
    config.sim.node_faults.drop_buffers = true;
    config.sim.contact.fault.loss_rate = 0.15;
    config.sim.contact.fault.loss_spread = 0.5;
    config.sim.contact.fault.meta_degrade_rate = 0.2;
  }
  return config;
}

PacketPool matrix_workload() {
  WorkloadConfig wl;
  wl.duration = kHorizon;
  wl.load_period = 600;
  wl.packets_per_period_per_pair = 0.6;
  Rng rng(7);
  return generate_workload(wl, 5, rng);
}

std::vector<ContactEvent> matrix_contacts() {
  // Deterministic rotating pattern: every pair meets repeatedly, capacities
  // vary so partial queues and evictions differ between contacts.
  std::vector<ContactEvent> out;
  for (int i = 0; i < 40; ++i) {
    const NodeId a = i % 5;
    NodeId b = (a + 1 + (i % 4)) % 5;
    if (b == a) b = (b + 1) % 5;
    ContactEvent c;
    c.a = a;
    c.b = b;
    c.time = 25.0 + 29.0 * i;
    c.capacity = 3 * 1024 + (i % 5) * 1024;
    out.push_back(c);
  }
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

struct RunOutput {
  SimResult result;
  std::string final_snapshot;
};

// Straight run: ingest everything, snapshot at the midpoint, finish.
RunOutput straight_run(ProtocolKind protocol, const std::string& tag, bool faulted = false) {
  ServiceEngine engine(matrix_config(protocol, faulted), matrix_workload());
  for (const ContactEvent& c : matrix_contacts()) engine.ingest(c);
  engine.advance_to(kMidpoint);
  const std::string mid = testing::TempDir() + "/matrix_mid_" + tag + ".bin";
  engine.snapshot(mid);
  engine.advance_to(kHorizon);
  const std::string fin = testing::TempDir() + "/matrix_fin_" + tag + ".bin";
  engine.snapshot(fin);
  return {engine.report(), file_bytes(fin)};
}

RunOutput restored_run(ProtocolKind protocol, const std::string& tag, bool faulted = false) {
  const std::string mid = testing::TempDir() + "/matrix_mid_" + tag + ".bin";
  const auto engine =
      ServiceEngine::restore(mid, matrix_config(protocol, faulted), matrix_workload());
  EXPECT_DOUBLE_EQ(engine->advanced_to(), kMidpoint);
  engine->advance_to(kHorizon);
  const std::string fin = testing::TempDir() + "/matrix_fin_restored_" + tag + ".bin";
  engine->snapshot(fin);
  return {engine->report(), file_bytes(fin)};
}

void expect_bit_identical(const RunOutput& a, const RunOutput& b, const std::string& label) {
  EXPECT_EQ(a.result.delivered, b.result.delivered) << label;
  EXPECT_EQ(a.result.delivery_rate, b.result.delivery_rate) << label;
  EXPECT_EQ(a.result.avg_delay, b.result.avg_delay) << label;
  EXPECT_EQ(a.result.max_delay, b.result.max_delay) << label;
  EXPECT_EQ(a.result.data_bytes, b.result.data_bytes) << label;
  EXPECT_EQ(a.result.metadata_bytes, b.result.metadata_bytes) << label;
  EXPECT_EQ(a.result.drops, b.result.drops) << label;
  EXPECT_EQ(a.result.meetings, b.result.meetings) << label;
  EXPECT_EQ(a.result.delivery_time, b.result.delivery_time) << label;
  ASSERT_FALSE(a.final_snapshot.empty()) << label;
  EXPECT_EQ(a.final_snapshot, b.final_snapshot)
      << label << ": restored run's final snapshot bytes diverged";
}

TEST(SnapshotMatrix, RestoreThenContinueIsBitIdenticalForEveryProtocol) {
  for (ProtocolKind kind : all_protocols()) {
    const std::string tag = std::to_string(static_cast<int>(kind));
    const RunOutput straight = straight_run(kind, tag);
    // The traffic must be non-trivial for the comparison to mean anything.
    EXPECT_GT(straight.result.meetings, 0u) << to_string(kind);
    const RunOutput restored = restored_run(kind, tag);
    expect_bit_identical(straight, restored, to_string(kind));
  }
}

// Same contract with fault injection live: a snapshot taken between crashes
// must capture the pending fault events and per-meeting corruption streams
// so the restored run replays the identical failures.
TEST(SnapshotMatrix, FaultedRestoreThenContinueIsBitIdenticalForEveryProtocol) {
  for (ProtocolKind kind : all_protocols()) {
    const std::string tag = "faulted_" + std::to_string(static_cast<int>(kind));
    const RunOutput straight = straight_run(kind, tag, /*faulted=*/true);
    EXPECT_GT(straight.result.meetings, 0u) << to_string(kind);
    EXPECT_GT(straight.result.crashes, 0u) << to_string(kind) << ": fault case is vacuous";
    const RunOutput restored = restored_run(kind, tag, /*faulted=*/true);
    expect_bit_identical(straight, restored, to_string(kind) + " (faulted)");
  }
}

TEST(SnapshotMatrix, ResultsAreIndependentOfThreadCount) {
  // Serial pass first (distinct file tags so the runs never collide).
  std::vector<RunOutput> serial(all_protocols().size());
  for (std::size_t i = 0; i < all_protocols().size(); ++i)
    serial[i] = straight_run(all_protocols()[i], "serial_" + std::to_string(i));

  std::vector<RunOutput> threaded(all_protocols().size());
  runner::parallel_for(4, all_protocols().size(), [&](std::size_t i) {
    threaded[i] = straight_run(all_protocols()[i], "threaded_" + std::to_string(i));
  });

  for (std::size_t i = 0; i < all_protocols().size(); ++i)
    expect_bit_identical(serial[i], threaded[i],
                         to_string(all_protocols()[i]) + " (threads)");
}

}  // namespace
}  // namespace rapid
