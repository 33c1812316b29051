// The offline Optimal (Appendix D): routing choices the ILP must get right.
#include <gtest/gtest.h>

#include "dtn/contact_session.h"
#include "opt/optimal_router.h"
#include "opt/time_expanded.h"
#include "sim/engine.h"

namespace rapid {
namespace {

PacketId add_packet(PacketPool& pool, NodeId src, NodeId dst, Time created,
                    Bytes size = 1_KB) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size = size;
  p.created = created;
  return pool.add(p);
}

TEST(TimeExpanded, DirectDeliverySingleHop) {
  MeetingSchedule s;
  s.num_nodes = 2;
  s.duration = 100;
  s.add(0, 1, 10, 1_KB);
  s.sort();
  PacketPool pool;
  const PacketId id = add_packet(pool, 0, 1, 0);
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_TRUE(plan.proven_optimal);
  EXPECT_EQ(plan.delivered, 1);
  EXPECT_NEAR(plan.total_delay, 10.0, 1e-6);
  ASSERT_EQ(plan.by_meeting.at(0).size(), 1u);
  EXPECT_EQ(plan.by_meeting.at(0)[0].packet, id);
}

TEST(TimeExpanded, RelayPathIsFound) {
  // 0 never meets 2; the packet must go 0 -> 1 -> 2.
  MeetingSchedule s;
  s.num_nodes = 3;
  s.duration = 100;
  s.add(0, 1, 10, 1_KB);
  s.add(1, 2, 30, 1_KB);
  s.sort();
  PacketPool pool;
  add_packet(pool, 0, 2, 0);
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 1);
  EXPECT_NEAR(plan.total_delay, 30.0, 1e-6);
  EXPECT_EQ(plan.by_meeting.at(0).size(), 1u);
  EXPECT_EQ(plan.by_meeting.at(1).size(), 1u);
}

TEST(TimeExpanded, PrefersEarlierDelivery) {
  // Two routes: direct at t = 80, or relay arriving at t = 40.
  MeetingSchedule s;
  s.num_nodes = 3;
  s.duration = 100;
  s.add(0, 1, 10, 1_KB);
  s.add(1, 2, 40, 1_KB);
  s.add(0, 2, 80, 1_KB);
  s.sort();
  PacketPool pool;
  add_packet(pool, 0, 2, 0);
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 1);
  EXPECT_NEAR(plan.total_delay, 40.0, 1e-6);
}

TEST(TimeExpanded, CapacityForcesChoice) {
  // One meeting, room for one packet, two packets want it: exactly one is
  // delivered; the other is charged its residence time.
  MeetingSchedule s;
  s.num_nodes = 2;
  s.duration = 100;
  s.add(0, 1, 10, 1_KB);
  s.sort();
  PacketPool pool;
  add_packet(pool, 0, 1, 0);
  add_packet(pool, 0, 1, 5);
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 1);
}

TEST(TimeExpanded, PacketCreatedAfterMeetingCannotUseIt) {
  MeetingSchedule s;
  s.num_nodes = 2;
  s.duration = 100;
  s.add(0, 1, 10, 1_KB);
  s.sort();
  PacketPool pool;
  add_packet(pool, 0, 1, 20);  // created after the only meeting
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 0);
  EXPECT_NEAR(plan.total_delay, 80.0, 1e-6);  // duration - created
}

TEST(TimeExpanded, EdgeDisjointPathsStructure) {
  // The Theorem 2 flavour: two packets, two edge-disjoint relay paths, each
  // meeting unit-capacity. Optimal must route both disjointly.
  MeetingSchedule s;
  s.num_nodes = 6;  // 0,1 sources; 2,3 relays; 4,5 destinations
  s.duration = 100;
  s.add(0, 2, 10, 1_KB);
  s.add(1, 3, 12, 1_KB);
  s.add(2, 4, 30, 1_KB);
  s.add(3, 5, 32, 1_KB);
  s.sort();
  PacketPool pool;
  add_packet(pool, 0, 4, 0);
  add_packet(pool, 1, 5, 0);
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 2);
}

TEST(TimeExpanded, SharedBottleneckDeliversOnlyOne) {
  // Both packets need the same unit-capacity middle meeting.
  MeetingSchedule s;
  s.num_nodes = 4;
  s.duration = 100;
  s.add(0, 1, 5, 1_KB);   // feeder for packet B
  s.add(1, 2, 20, 1_KB);  // shared bottleneck
  s.add(2, 3, 40, 2_KB);  // final hop has room for both
  s.sort();
  PacketPool pool;
  add_packet(pool, 1, 3, 0);  // packet A starts at the bottleneck's tail
  add_packet(pool, 0, 3, 0);  // packet B must come through 0 -> 1 first
  const OptimalPlan plan = solve_optimal_routing(s, pool);
  EXPECT_EQ(plan.delivered, 1);
}

TEST(TimeExpanded, ReplayThroughEngineMatchesPlan) {
  // The OptimalRouter replay must deliver exactly what the plan promises.
  MeetingSchedule s;
  s.num_nodes = 4;
  s.duration = 200;
  s.add(0, 1, 10, 2_KB);
  s.add(1, 2, 50, 1_KB);
  s.add(0, 3, 70, 1_KB);
  s.add(1, 3, 90, 1_KB);
  s.sort();
  PacketPool pool;
  add_packet(pool, 0, 2, 0);
  add_packet(pool, 0, 3, 0);
  const auto plan = solve_plan(s, pool);
  ASSERT_GT(plan->delivered, 0);

  SimConfig config;
  const SimResult result = run_simulation(s, pool, make_optimal_factory(plan, -1), config);
  EXPECT_EQ(static_cast<int>(result.delivered), plan->delivered);
  EXPECT_NEAR(result.avg_delay_with_undelivered * static_cast<double>(result.total_packets),
              plan->total_delay, 1.0);
}

TEST(TimeExpanded, UnsortedScheduleThrows) {
  MeetingSchedule s;
  s.num_nodes = 2;
  s.duration = 100;
  s.add(0, 1, 50, 1_KB);
  s.add(0, 1, 10, 1_KB);
  PacketPool pool;
  EXPECT_THROW(solve_optimal_routing(s, pool), std::invalid_argument);
}

}  // namespace
}  // namespace rapid
