// The fault-injection subsystem and the crash-safety it is meant to prove.
//
// Three layers under test:
//   * FaultModel — the deterministic crash/recover stream: alternation,
//     heap-merge ordering, independence from fleet size, pure function of
//     (seed, node);
//   * the Simulation wired for faults — disabled configs are a bit-identical
//     no-op, crash policies (drop vs preserve buffers) diverge only where
//     they should, corruption charges the channel, metadata degradation
//     starves the control plane;
//   * the crash-safe service mode — RSNP v2 snapshots reject every byte flip
//     and truncation cleanly (fuzzed), the supervisor skips corrupt
//     snapshots and restores the newest valid one, the tail cursor rides out
//     a bounded run of transient open failures, and a failed ingest leaves
//     the engine byte-identical to before the call.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "dtn/workload.h"
#include "fault/fault_model.h"
#include "mobility/exponential_model.h"
#include "mobility/trace_io.h"
#include "service/service_engine.h"
#include "service/supervise.h"
#include "sim/engine.h"
#include "sim/protocols.h"
#include "util/rng.h"

namespace rapid {
namespace {

// ---------------------------------------------------------------------------
// FaultModel: the event stream itself.

NodeFaultConfig small_faults() {
  NodeFaultConfig config;
  config.mean_uptime = 120;
  config.mean_downtime = 40;
  return config;
}

std::vector<FaultEvent> drain(FaultModel& model, int count) {
  std::vector<FaultEvent> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    out.push_back(model.peek());
    model.pop();
  }
  return out;
}

TEST(FaultModel, NodesAlternateCrashAndRecoverInTimeOrder) {
  FaultModel model(small_faults(), 4);
  const std::vector<FaultEvent> events = drain(model, 200);

  Time last = 0;
  std::vector<bool> up(4, true);  // every node starts up
  for (const FaultEvent& e : events) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ASSERT_GE(e.node, 0);
    ASSERT_LT(e.node, 4);
    // Strict alternation per node: a crash only while up, a recovery only
    // while down.
    EXPECT_NE(e.up, up[e.node]) << "node " << e.node << " at " << e.time;
    up[e.node] = e.up;
  }
}

TEST(FaultModel, StreamIsAPureFunctionOfTheConfig) {
  FaultModel a(small_faults(), 4);
  FaultModel b(small_faults(), 4);
  const auto ea = drain(a, 100);
  const auto eb = drain(b, 100);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].time, eb[i].time);
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_EQ(ea[i].up, eb[i].up);
  }

  NodeFaultConfig reseeded = small_faults();
  reseeded.seed ^= 0x9E3779B97F4A7C15ull;
  FaultModel c(reseeded, 4);
  const auto ec = drain(c, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < ea.size() && !any_diff; ++i)
    any_diff = ea[i].time != ec[i].time || ea[i].node != ec[i].node;
  EXPECT_TRUE(any_diff) << "a different seed must give a different schedule";
}

TEST(FaultModel, PerNodeScheduleIsIndependentOfFleetSize) {
  // Node n's transitions come from split("node-fault", n): growing the fleet
  // must not perturb the schedules of the nodes that were already there.
  FaultModel small(small_faults(), 3);
  FaultModel large(small_faults(), 9);
  const auto filter = [](const std::vector<FaultEvent>& events, NodeId node) {
    std::vector<FaultEvent> out;
    for (const FaultEvent& e : events)
      if (e.node == node) out.push_back(e);
    return out;
  };
  const auto es = drain(small, 300);
  const auto el = drain(large, 900);
  for (NodeId n = 0; n < 3; ++n) {
    const auto a = filter(es, n);
    const auto b = filter(el, n);
    const std::size_t common = std::min(a.size(), b.size());
    ASSERT_GT(common, 0u);
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(a[i].time, b[i].time) << "node " << n;
      EXPECT_EQ(a[i].up, b[i].up) << "node " << n;
    }
  }
}

TEST(FaultModel, RejectsDisabledConfigs) {
  NodeFaultConfig off;
  EXPECT_THROW(FaultModel(off, 4), std::invalid_argument);
  EXPECT_THROW(FaultModel(small_faults(), 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The simulation wired for faults.

struct SmallWorld {
  MeetingSchedule schedule;
  PacketPool workload;
};

SmallWorld make_world(std::uint64_t seed) {
  ExponentialMobilityConfig mobility;
  mobility.num_nodes = 8;
  mobility.duration = 600;
  mobility.pair_mean_intermeeting = 60;
  mobility.mean_opportunity = 8_KB;
  Rng rng(seed);
  SmallWorld world;
  world.schedule = generate_exponential_schedule(mobility, rng);

  WorkloadConfig wl;
  wl.packets_per_period_per_pair = 2.0;
  wl.load_period = 600;
  wl.duration = 600;
  wl.deadline = 120;
  Rng wrng = rng.split("wl");
  world.workload = generate_workload(wl, 8, wrng);
  return world;
}

RouterFactory factory_for(ProtocolKind kind) {
  ProtocolParams params;
  params.rapid_prior_meeting_time = 600;
  params.rapid_prior_opportunity = 8_KB;
  params.rapid_delay_cap = 1200;
  params.prophet_aging_unit = 10;
  return make_protocol_factory(kind, params, 64_KB);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.meetings_suppressed, b.meetings_suppressed);
  EXPECT_EQ(a.fault_lost_packets, b.fault_lost_packets);
  EXPECT_EQ(a.corrupted_transfers, b.corrupted_transfers);
  EXPECT_EQ(a.corrupted_bytes, b.corrupted_bytes);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

TEST(FaultSim, DisabledFaultConfigIsABitIdenticalNoOp) {
  const SmallWorld world = make_world(31);
  const SimResult baseline = run_simulation(world.schedule, world.workload,
                                            factory_for(ProtocolKind::kRapid), SimConfig{});

  // Zero rates with non-default seeds/spreads: no fault draw may ever be
  // taken, so the run must not shift by a single RNG call.
  SimConfig zeroed;
  zeroed.contact.fault.loss_rate = 0.0;
  zeroed.contact.fault.loss_spread = 0.7;
  zeroed.contact.fault.meta_degrade_rate = 0.0;
  zeroed.contact.fault.seed = 0xDEAD;
  zeroed.node_faults.seed = 0xBEEF;  // enabled() is false: means are zero
  const SimResult with_zeroed = run_simulation(world.schedule, world.workload,
                                               factory_for(ProtocolKind::kRapid), zeroed);
  expect_identical(baseline, with_zeroed);
  EXPECT_EQ(with_zeroed.crashes, 0u);
  EXPECT_EQ(with_zeroed.corrupted_transfers, 0u);
}

TEST(FaultSim, CrashPolicyDropsOrPreservesBuffersOnTheSameSchedule) {
  const SmallWorld world = make_world(32);
  SimConfig drop;
  drop.node_faults = small_faults();
  drop.node_faults.drop_buffers = true;
  SimConfig preserve = drop;
  preserve.node_faults.drop_buffers = false;

  const SimResult dropped = run_simulation(world.schedule, world.workload,
                                           factory_for(ProtocolKind::kEpidemic), drop);
  const SimResult preserved = run_simulation(world.schedule, world.workload,
                                             factory_for(ProtocolKind::kEpidemic), preserve);

  // The fault schedule is policy-independent...
  EXPECT_GT(dropped.crashes, 0u);
  EXPECT_EQ(dropped.crashes, preserved.crashes);
  EXPECT_EQ(dropped.recoveries, preserved.recoveries);
  EXPECT_EQ(dropped.meetings_suppressed, preserved.meetings_suppressed);
  // ... only what a crash does to the buffer differs: diskless nodes shed
  // their queues through the drop path, persistent ones keep them.
  EXPECT_GT(dropped.drops, preserved.drops);
  // Down nodes miss contacts and lose their own traffic in both modes.
  EXPECT_GT(dropped.meetings_suppressed, 0u);
  EXPECT_GT(dropped.fault_lost_packets, 0u);
}

TEST(FaultSim, CorruptionChargesTheChannelWithoutDelivering) {
  const SmallWorld world = make_world(33);
  const SimResult clean = run_simulation(world.schedule, world.workload,
                                         factory_for(ProtocolKind::kRapid), SimConfig{});
  SimConfig lossy;
  lossy.contact.fault.loss_rate = 0.3;
  lossy.contact.fault.loss_spread = 0.5;
  const SimResult faulted = run_simulation(world.schedule, world.workload,
                                           factory_for(ProtocolKind::kRapid), lossy);

  EXPECT_GT(faulted.corrupted_transfers, 0u);
  EXPECT_GT(faulted.corrupted_bytes, 0);
  // Corrupted bytes burn channel capacity (they are part of data_bytes) but
  // never become deliveries.
  EXPECT_LE(faulted.corrupted_bytes, faulted.data_bytes);
  EXPECT_LT(faulted.delivered, clean.delivered);
  // Same config, same result: the per-pair and per-meeting draws are seeded.
  const SimResult again = run_simulation(world.schedule, world.workload,
                                         factory_for(ProtocolKind::kRapid), lossy);
  expect_identical(faulted, again);
}

TEST(FaultSim, MetadataDegradationStarvesTheControlPlane) {
  const SmallWorld world = make_world(34);
  SimConfig base;
  const SimResult clean = run_simulation(world.schedule, world.workload,
                                         factory_for(ProtocolKind::kRapid), base);
  SimConfig degraded = base;
  degraded.contact.fault.meta_degrade_rate = 1.0;  // every contact degraded
  degraded.contact.fault.meta_survive_fraction = 0.25;
  const SimResult faulted = run_simulation(world.schedule, world.workload,
                                           factory_for(ProtocolKind::kRapid), degraded);
  EXPECT_LT(faulted.metadata_bytes, clean.metadata_bytes);
}

// ---------------------------------------------------------------------------
// Crash-safe service mode.

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

ServiceConfig tiny_config() {
  ServiceConfig config;
  config.num_nodes = 4;
  config.protocol = ProtocolKind::kRapid;
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

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << "cannot write " << path;
  f << bytes;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  // Clear leftovers from a previous run of the same test binary.
  for (const std::string& stale : list_snapshots_newest_first(dir))
    std::remove(stale.c_str());
  return dir;
}

// The RSNP corruption fuzz (deterministic: fixed flip stride and truncation
// set, no wall-clock randomness). Every mutation must surface as a clean
// std::runtime_error from restore() — never a crash, never an engine built
// from half a file.
TEST(SnapshotFuzz, EveryByteFlipAndTruncationIsRejectedCleanly) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) engine.ingest(c);
  engine.advance_to(250);
  const std::string path = testing::TempDir() + "/fault_fuzz.bin";
  engine.snapshot(path);
  const std::string valid = file_bytes(path);
  ASSERT_GT(valid.size(), 64u);

  const std::string mutated = testing::TempDir() + "/fault_fuzz_mut.bin";
  // Byte flips across the whole file — header, body, CRC footer — at a
  // stride that is coprime with typical field sizes.
  int flips = 0;
  for (std::size_t at = 0; at < valid.size(); at += 7, ++flips) {
    std::string bytes = valid;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
    write_bytes(mutated, bytes);
    EXPECT_THROW(ServiceEngine::restore(mutated, tiny_config(), tiny_workload()),
                 std::runtime_error)
        << "flip at byte " << at << " slipped through";
  }
  EXPECT_GT(flips, 8);

  // Truncations: empty, sub-footer, mid-body, and one-byte-short.
  const std::size_t cuts[] = {0, 1, 4, 7, valid.size() / 3, valid.size() / 2,
                              valid.size() - 9, valid.size() - 1};
  for (std::size_t cut : cuts) {
    write_bytes(mutated, valid.substr(0, cut));
    EXPECT_THROW(ServiceEngine::restore(mutated, tiny_config(), tiny_workload()),
                 std::runtime_error)
        << "truncation to " << cut << " bytes slipped through";
  }

  // And the untouched original still restores: the fuzz loop proves
  // rejection, this proves we were rejecting real snapshots, not garbage in
  // general.
  const auto restored = ServiceEngine::restore(path, tiny_config(), tiny_workload());
  EXPECT_DOUBLE_EQ(restored->advanced_to(), 250);
}

TEST(Supervise, ListsSnapshotsNewestFirstIgnoringStrays) {
  const std::string dir = fresh_dir("fault_supervise_list");
  write_bytes(dir + "/snapshot-100.bin", "x");
  write_bytes(dir + "/snapshot-250.5.bin", "x");
  write_bytes(dir + "/snapshot-50.bin", "x");
  write_bytes(dir + "/snapshot-300.bin.tmp", "x");  // torn writer leftover
  write_bytes(dir + "/snapshot-abc.bin", "x");      // not a mark
  write_bytes(dir + "/other.txt", "x");

  const std::vector<std::string> got = list_snapshots_newest_first(dir);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], dir + "/snapshot-250.5.bin");
  EXPECT_EQ(got[1], dir + "/snapshot-100.bin");
  EXPECT_EQ(got[2], dir + "/snapshot-50.bin");
  // A missing directory is an empty list, not an error.
  EXPECT_TRUE(list_snapshots_newest_first(dir + "/definitely-missing").empty());
}

TEST(Supervise, SkipsCorruptNewestAndRestoresTheNewestValid) {
  const std::string dir = fresh_dir("fault_supervise_restore");
  ServiceEngine engine(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) engine.ingest(c);
  engine.advance_to(200);
  engine.snapshot(dir + "/snapshot-200.bin");
  engine.advance_to(400);
  engine.snapshot(dir + "/snapshot-400.bin");

  // The newest snapshot is torn mid-write: flip a body byte.
  std::string torn = file_bytes(dir + "/snapshot-400.bin");
  torn[torn.size() / 2] = static_cast<char>(torn[torn.size() / 2] ^ 0xFF);
  write_bytes(dir + "/snapshot-400.bin", torn);

  const SuperviseResult result =
      restore_latest_valid(dir, tiny_config(), tiny_workload(), "");
  ASSERT_NE(result.engine, nullptr);
  EXPECT_EQ(result.restored_from, dir + "/snapshot-200.bin");
  EXPECT_DOUBLE_EQ(result.engine->advanced_to(), 200);
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_NE(result.skipped[0].find("snapshot-400.bin"), std::string::npos);

  // The restored engine continues like the uninterrupted one.
  result.engine->advance_to(600);
  ServiceEngine straight(tiny_config(), tiny_workload());
  for (const ContactEvent& c : tiny_contacts()) straight.ingest(c);
  straight.advance_to(600);
  expect_identical(straight.report(), result.engine->report());
}

TEST(Supervise, EmptyOrFullyCorruptDirectoryFallsBackToFresh) {
  const std::string empty = fresh_dir("fault_supervise_empty");
  const SuperviseResult none =
      restore_latest_valid(empty, tiny_config(), tiny_workload(), "");
  EXPECT_EQ(none.engine, nullptr);
  EXPECT_TRUE(none.restored_from.empty());
  EXPECT_TRUE(none.skipped.empty());

  const std::string corrupt = fresh_dir("fault_supervise_corrupt");
  write_bytes(corrupt + "/snapshot-10.bin", "not a snapshot at all");
  const SuperviseResult fallback =
      restore_latest_valid(corrupt, tiny_config(), tiny_workload(), "");
  EXPECT_EQ(fallback.engine, nullptr);
  ASSERT_EQ(fallback.skipped.size(), 1u);
  EXPECT_NE(fallback.skipped[0].find("snapshot-10.bin"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceTailCursor: bounded tolerance for transient open failures.

constexpr const char* kTailHeader = "rapid-trace v1\nfleet 4\nday 3600 active 0 1 2 3\n";

TEST(TailRetry, TransientOpenFailuresAreToleratedUpToTheBudget) {
  const std::string path = testing::TempDir() + "/fault_tail_retry.txt";
  const std::string hidden = testing::TempDir() + "/fault_tail_retry.hidden";
  write_bytes(path, std::string(kTailHeader) + "meet 0 1 10 1000\n");

  TraceTailCursor cursor(path);
  std::vector<Meeting> out;
  EXPECT_EQ(cursor.poll(out), 1u);

  // The file vanishes (log rotation, NFS blip): polls report "nothing new"
  // up to the budget...
  ASSERT_EQ(std::rename(path.c_str(), hidden.c_str()), 0);
  for (int i = 0; i < TraceTailCursor::kMaxTransientOpenFailures; ++i)
    EXPECT_EQ(cursor.poll(out), 0u) << "transient failure " << i;
  // ... and the failure budget resets the moment the file is back.
  ASSERT_EQ(std::rename(hidden.c_str(), path.c_str()), 0);
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "meet 1 2 20 2000\n";
  }
  EXPECT_EQ(cursor.poll(out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].a, 1);

  // Gone again, and this time for good: the budget runs out loudly.
  ASSERT_EQ(std::rename(path.c_str(), hidden.c_str()), 0);
  for (int i = 0; i < TraceTailCursor::kMaxTransientOpenFailures; ++i)
    EXPECT_EQ(cursor.poll(out), 0u);
  try {
    cursor.poll(out);
    FAIL() << "the retry budget must be bounded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("consecutive"), std::string::npos) << e.what();
  }
  std::remove(hidden.c_str());
}

TEST(TailRetry, NeverOpenedFileFailsImmediately) {
  // The retry budget is for files that existed and blinked — a path that was
  // wrong from the start is a configuration error and must not be retried.
  TraceTailCursor cursor(testing::TempDir() + "/fault_tail_never_existed.txt");
  std::vector<Meeting> out;
  EXPECT_THROW(cursor.poll(out), std::runtime_error);
}

// ---------------------------------------------------------------------------
// ServiceEngine::ingest error paths: a rejected contact is a no-op.

TEST(ServiceIngestErrors, RejectedIngestLeavesTheEngineByteIdentical) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  engine.ingest({0, 1, 60, 32768});
  engine.ingest({1, 2, 120, 32768});
  engine.advance_to(200);

  const std::string before = testing::TempDir() + "/fault_ingest_before.bin";
  engine.snapshot(before);
  const SimResult report_before = engine.report();

  const auto expect_rejected = [&engine](const ContactEvent& c, const char* needle) {
    try {
      engine.ingest(c);
      FAIL() << "ingest should have rejected the contact (" << needle << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_rejected({0, 9, 250, 1024}, "out of range");
  expect_rejected({-1, 1, 250, 1024}, "out of range");
  expect_rejected({2, 2, 250, 1024}, "self contact");
  expect_rejected({0, 1, 250, -5}, "negative capacity");
  expect_rejected({0, 1, 150, 1024}, "precedes the clock");  // ingest-after-advance
  EXPECT_THROW(engine.advance_to(100), std::runtime_error);  // clock rewind

  // Still queryable, and not a byte of state moved.
  EXPECT_GE(engine.query_status(0).replicas, 1);
  EXPECT_DOUBLE_EQ(engine.advanced_to(), 200);
  expect_identical(report_before, engine.report());
  const std::string after = testing::TempDir() + "/fault_ingest_after.bin";
  engine.snapshot(after);
  EXPECT_EQ(file_bytes(before), file_bytes(after));

  // And a valid contact still goes through after all those rejections.
  engine.ingest({0, 3, 240, 32768});
  engine.advance_to(300);
  EXPECT_DOUBLE_EQ(engine.advanced_to(), 300);
}

TEST(ServiceIngestErrors, NonMonotonicIngestIsRejectedWithDiagnostics) {
  ServiceEngine engine(tiny_config(), tiny_workload());
  engine.ingest({0, 1, 50, 1024});
  try {
    engine.ingest({0, 1, 40, 1024});
    FAIL() << "non-monotonic ingest should throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-monotonic"), std::string::npos) << what;
    EXPECT_NE(what.find("40"), std::string::npos) << what;
    EXPECT_NE(what.find("50"), std::string::npos) << what;
  }
  // The queue is intact: the accepted contact still plays.
  engine.advance_to(100);
  EXPECT_EQ(engine.stats().meetings, 1);
}

}  // namespace
}  // namespace rapid
