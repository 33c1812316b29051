#include "opt/optimal_router.h"

namespace rapid {

OptimalRouter::OptimalRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                             std::shared_ptr<const OptimalPlan> plan)
    : Router(self, buffer_capacity, ctx), plan_(std::move(plan)) {}

std::optional<PacketId> OptimalRouter::next_transfer(const ContactContext& contact,
                                                     const PeerView& peer) {
  if (active_meeting_ != contact.meeting_index) {
    active_meeting_ = contact.meeting_index;
    cursor_ = 0;
  }
  const auto it = plan_->by_meeting.find(contact.meeting_index);
  if (it == plan_->by_meeting.end()) return std::nullopt;
  const auto& transfers = it->second;
  while (cursor_ < transfers.size()) {
    const PlannedTransfer& t = transfers[cursor_];
    ++cursor_;
    if (t.from != self() || t.to != peer.self()) continue;
    if (!buffer().contains(t.packet)) continue;  // plan fragment we never received
    const Packet& p = ctx().packet(t.packet);
    if (peer.has_received(t.packet) || contact_skipped(t.packet)) continue;
    // A planned relay the peer already holds must not burn budget again.
    if (peer.has_packet(t.packet)) continue;
    if (p.size > contact.remaining) continue;
    return t.packet;
  }
  return std::nullopt;
}

PacketId OptimalRouter::choose_drop_victim(const Packet& /*incoming*/, Time /*now*/) {
  // The offline plan is computed for unconstrained storage (the paper's ILP
  // has no storage constraint); never evict.
  return kNoPacket;
}

std::shared_ptr<const OptimalPlan> solve_plan(const MeetingSchedule& schedule,
                                              const PacketPool& workload,
                                              const TimeExpandedOptions& options) {
  return std::make_shared<const OptimalPlan>(
      solve_optimal_routing(schedule, workload, options));
}

RouterFactory make_optimal_factory(std::shared_ptr<const OptimalPlan> plan,
                                   Bytes buffer_capacity) {
  return [plan, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<OptimalRouter>(node, buffer_capacity, &ctx, plan);
  };
}

RouterFactory make_optimal_factory(const MeetingSchedule& schedule, const PacketPool& workload,
                                   Bytes buffer_capacity, const TimeExpandedOptions& options) {
  return make_optimal_factory(solve_plan(schedule, workload, options), buffer_capacity);
}

}  // namespace rapid
