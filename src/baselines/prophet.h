// PRoPHET [Lindgren et al. 2004] with the paper's parameters (§6.1):
// P_init = 0.75, beta = 0.25, gamma = 0.98.
//
// Each node maintains delivery predictabilities P(self, d):
//   on meeting d:     P = P + (1 - P) * P_init
//   aging:            P = P * gamma^(elapsed / aging_unit)
//   transitivity:     P(self, d) = max(P, P(self, peer) * P(peer, d) * beta)
// A copy is replicated to the peer when the peer's predictability for the
// destination exceeds ours (GRTR). Lowest-predictability packets are dropped
// first under storage pressure.
#pragma once

#include <utility>
#include <vector>

#include "dtn/router.h"

namespace rapid {

struct ProphetConfig {
  double p_init = 0.75;
  double beta = 0.25;
  double gamma = 0.98;
  // Seconds per aging time unit; scenario-dependent (the protocol paper
  // leaves it deployment-defined). The harness sets it per mobility model.
  double aging_unit = 60.0;
};

class ProphetRouter : public Router {
 public:
  ProphetRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                const ProphetConfig& config);

  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

  // Aged predictability towards `dst` as of `now`.
  double predictability(NodeId dst, Time now) const;

  // Snapshot/restore: predictability vector and its aging clock.
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

 protected:
  // Packets for the peer oldest first; then the GRTR forwards, highest peer
  // predictability first (ties oldest first).
  void build_plan(const ContactContext& contact, const PeerView& peer) override;

 private:
  ProphetConfig config_;
  mutable std::vector<double> p_;   // predictabilities, aged lazily
  mutable Time last_aged_ = 0;
  std::vector<std::pair<double, PacketId>> forwards_;  // build_plan scratch

  void age_to(Time now) const;
};

RouterFactory make_prophet_factory(const ProphetConfig& config, Bytes buffer_capacity);

}  // namespace rapid
