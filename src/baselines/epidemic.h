// Epidemic routing [Vahdat & Becker 2000]: flood every packet at every
// transfer opportunity, oldest first, with optional delivery-ack purging.
// Included as the classical replication extreme (Table 1, problem P1).
#pragma once

#include <vector>

#include "dtn/router.h"

namespace rapid {

struct EpidemicConfig {
  bool flood_acks = false;
};

class EpidemicRouter : public Router {
 public:
  EpidemicRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                 const EpidemicConfig& config);

  bool on_generate(const Packet& p) override;
  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override;
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;

  // Snapshot/restore: arrival sequence numbers for the FIFO drop order.
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override;
  // Every buffered packet, oldest first: those for the peer deliver, the
  // rest replicate.
  void build_plan(const ContactContext& contact, const PeerView& peer) override;

 private:
  EpidemicConfig config_;
  std::uint64_t arrival_seq_ = 0;
  std::vector<std::uint64_t> arrival_;  // flat FIFO order for drops, by packet id

  void note_arrival(PacketId id);
};

RouterFactory make_epidemic_factory(const EpidemicConfig& config, Bytes buffer_capacity);

}  // namespace rapid
