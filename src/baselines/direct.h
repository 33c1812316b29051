// Direct delivery: a packet is held by its source until the source meets the
// destination. The forwarding-free extreme; useful as a floor in tests and
// ablations.
#pragma once

#include "dtn/router.h"

namespace rapid {

class DirectRouter : public Router {
 public:
  DirectRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx);

  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

 protected:
  // Own packets for the peer, oldest first; nothing is ever replicated.
  void build_plan(const ContactContext& contact, const PeerView& peer) override;
};

RouterFactory make_direct_factory(Bytes buffer_capacity);

}  // namespace rapid
