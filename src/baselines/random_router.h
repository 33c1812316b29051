// Random replication (§6.1): "replicates randomly chosen packets for the
// duration of the transfer opportunity." Packets destined to the peer are
// delivered first (all compared protocols do direct delivery).
//
// The `flood_acks` variant is the Fig 14 ablation "Random with acks":
// delivery acknowledgments propagate at every contact and purge delivered
// copies from buffers.
#pragma once

#include "dtn/router.h"

namespace rapid {

struct RandomConfig {
  bool flood_acks = false;
};

class RandomRouter : public Router {
 public:
  RandomRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
               const RandomConfig& config);

  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override;
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

 protected:
  // Packets for the peer oldest first; the rest in a fresh uniformly random
  // order each contact (the shuffle IS the protocol).
  void build_plan(const ContactContext& contact, const PeerView& peer) override;

 private:
  RandomConfig config_;
};

RouterFactory make_random_factory(const RandomConfig& config, Bytes buffer_capacity);

}  // namespace rapid
