// Offline Optimal router (§6.2.4): solves the Appendix D ILP for the whole
// day up front, then replays the planned transfers through the normal
// contact machinery. Provides the upper bound Fig 13 compares against.
#pragma once

#include <memory>
#include <optional>

#include "dtn/router.h"
#include "opt/time_expanded.h"

namespace rapid {

class OptimalRouter : public Router {
 public:
  OptimalRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                std::shared_ptr<const OptimalPlan> plan);

  std::optional<PacketId> next_transfer(const ContactContext& contact, const PeerView& peer) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

 private:
  std::shared_ptr<const OptimalPlan> plan_;
  // Both directions share the per-meeting transfer list; each router keeps
  // its own position in it, reset when a new meeting starts.
  int active_meeting_ = -1;
  std::size_t cursor_ = 0;
};

// Solves the plan once and shares it across all node routers.
RouterFactory make_optimal_factory(const MeetingSchedule& schedule, const PacketPool& workload,
                                   Bytes buffer_capacity,
                                   const TimeExpandedOptions& options = {});

// Access to the plan itself (benches report proven_optimal / delay).
std::shared_ptr<const OptimalPlan> solve_plan(const MeetingSchedule& schedule,
                                              const PacketPool& workload,
                                              const TimeExpandedOptions& options = {});
RouterFactory make_optimal_factory(std::shared_ptr<const OptimalPlan> plan,
                                   Bytes buffer_capacity);

}  // namespace rapid
