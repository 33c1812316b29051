// Binary Spray and Wait [Spyropoulos et al. 2005], as configured in §6.1:
// every packet starts with L = 12 logical copies at its source ("set based on
// consultation with authors and LEMMA 4.3 in [30] with a = 4"). A node
// holding c > 1 copies hands floor(c/2) to a node without the packet (spray);
// a node holding a single copy waits to deliver it directly (wait).
#pragma once

#include <vector>

#include "dtn/router.h"

namespace rapid {

struct SprayWaitConfig {
  int initial_copies = 12;
};

class SprayWaitRouter : public Router {
 public:
  SprayWaitRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                  const SprayWaitConfig& config);

  bool on_generate(const Packet& p) override;
  std::int64_t transfer_aux(const Packet& p, const PeerView& peer) override;
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

  int copies_of(PacketId id) const;

  // Snapshot/restore: logical copy counts.
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override;
  void on_dropped(const Packet& p, Time now) override;
  void on_acked(const Packet& p, Time now) override;
  // Oldest first: packets for the peer deliver, packets with more than one
  // copy spray; single copies wait.
  void build_plan(const ContactContext& contact, const PeerView& peer) override;
  // Re-checks the copy count: a packet evicted and received back during the
  // contact returns with the copies the peer handed over, possibly one.
  bool may_replicate(const Packet& p) const override;

 private:
  SprayWaitConfig config_;
  std::vector<std::int32_t> copies_;  // flat, by packet id; 0 = not tracked

  void set_copies(PacketId id, int copies);
};

RouterFactory make_spray_wait_factory(const SprayWaitConfig& config, Bytes buffer_capacity);

}  // namespace rapid
