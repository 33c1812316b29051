// Epidemic routing [Vahdat & Becker 2000]: flood every packet at every
// transfer opportunity, oldest first, with optional delivery-ack purging.
// Included as the classical replication extreme (Table 1, problem P1).
//
// Buffer overflow drops FIFO: the copy that has been on board the longest.
// Every store takes the next arrival number, and from the first drop on an
// arrival-ordered queue hands out the victim in O(1) amortized (see
// choose_drop_victim).
#pragma once

#include <cstdint>
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
  // The buffered packet with the lowest arrival number, from the head of
  // the arrival queue.
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;
  void flush_obs(obs::ObsContext& out) const override;

  // Snapshot/restore: arrival numbers for the FIFO drop order. The queue is
  // derived state: restore drops it and the next drop rebuilds it.
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override;
  // Every buffered packet, oldest first: those for the peer deliver, the
  // rest replicate.
  void build_plan(const ContactContext& contact, const PeerView& peer) override;

 private:
  // One FIFO queue entry: a store's arrival number and the packet it stored.
  struct Arrival {
    std::uint32_t seq;
    std::uint32_t id;
  };

  EpidemicConfig config_;
  std::uint64_t arrival_seq_ = 0;       // next arrival number
  std::vector<std::uint32_t> arrival_;  // latest arrival number, by packet id
  // Arrivals in number order from queue_head_ on. An entry is stale once
  // its packet left the buffer or was stored again under a later number;
  // stale entries are skipped at the head and compacted away as the queue
  // outgrows the buffer. Built at the first drop.
  std::vector<Arrival> queue_;
  std::size_t queue_head_ = 0;
  bool queue_built_ = false;
  std::uint64_t evict_scanned_ = 0;  // queue entries inspected; evict.scanned

  void note_arrival(PacketId id);
  bool live(const Arrival& a) const;
  void build_queue();
};

RouterFactory make_epidemic_factory(const EpidemicConfig& config, Bytes buffer_capacity);

}  // namespace rapid
