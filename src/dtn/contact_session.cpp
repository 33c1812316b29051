#include "dtn/contact_session.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/rng.h"

namespace rapid {

namespace {

// The state of one contact while run_contact drives it.
class Contact {
 public:
  Contact(Router& a, Router& b, const Meeting& meeting, int meeting_index,
          const ContactConfig& config, const PacketPool& pool, MetricsCollector& metrics)
      : a_(a),
        b_(b),
        meeting_(meeting),
        meeting_index_(meeting_index),
        config_(config),
        pool_(pool),
        metrics_(metrics) {}

  ContactStats run() {
    open();
    transfer();
    close();
    return stats_;
  }

 private:
  Router& sender(bool from_a) { return from_a ? a_ : b_; }
  Router& receiver(bool from_a) { return from_a ? b_ : a_; }
  Bytes& send_budget(bool from_a);
  void open();
  void transfer();
  void perform_transfer(bool from_a, const Packet& p);
  void charge_partial(bool from_a, const Packet& p, Bytes bytes);
  void close();

  Router& a_;
  Router& b_;
  const Meeting& meeting_;
  const int meeting_index_;
  const ContactConfig& config_;
  const PacketPool& pool_;
  MetricsCollector& metrics_;

  ContactStats stats_;

  // Shared pool when symmetric (budget_ab_ is THE budget); directional
  // budgets otherwise.
  Bytes budget_ab_ = 0;
  Bytes budget_ba_ = 0;
  // Data bytes the link will carry before the policy cut, or < 0 for none.
  Bytes data_cutoff_ = -1;
  Bytes data_moved_ = 0;

  // Link-fault state, armed in open() only when config_.fault is live for
  // this pair: the per-pair loss probability and the per-meeting corruption
  // stream (split by meeting index, like the interruption draw).
  bool corrupt_enabled_ = false;
  double loss_prob_ = 0.0;
  Rng corrupt_rng_{0};
};

Bytes& Contact::send_budget(bool from_a) {
  if (!config_.link.asymmetric()) return budget_ab_;  // shared pool
  return from_a ? budget_ab_ : budget_ba_;
}

void Contact::open() {
  RAPID_OBS_INC(kContactSessions);
  RAPID_OBS_HIST(kContactCapacityBytes, meeting_.capacity);
  RAPID_OBS_TRACE(kContactOpen, meeting_.time, a_.self(), b_.self(), kNoPacket,
                  meeting_.capacity);
  // Metadata exchange and the protocols' contact_begin work are routing time.
  RAPID_OBS_PHASE(kRouting);

  a_.observe_opportunity(meeting_.capacity, b_.self(), meeting_.time);
  b_.observe_opportunity(meeting_.capacity, a_.self(), meeting_.time);

  // Link-policy draw, keyed by meeting index so the outcome is independent of
  // sweep execution order and thread count.
  Bytes effective_capacity = -1;  // negative = no cut
  if (config_.link.interruption_rate > 0.0) {
    Rng rng = Rng(config_.link.seed)
                  .split("interrupt", static_cast<std::uint64_t>(meeting_index_));
    if (rng.bernoulli(config_.link.interruption_rate)) {
      const double completion =
          rng.uniform(config_.link.min_completion, config_.link.max_completion);
      effective_capacity =
          static_cast<Bytes>(completion * static_cast<double>(meeting_.capacity));
    }
  }

  // Link-fault arming. The per-pair loss process scales the configured loss
  // rate by a pair-keyed uniform in [1-spread, 1+spread], so some pairs run
  // lossier links than others but every run agrees on which. The per-copy
  // draws then come from a stream keyed by meeting index, independent of
  // execution order and thread count.
  if (config_.fault.loss_rate > 0.0) {
    const std::uint64_t lo = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(std::min(a_.self(), b_.self())));
    const std::uint64_t hi = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(std::max(a_.self(), b_.self())));
    Rng pair_rng = Rng(config_.fault.seed).split("pair-loss", (lo << 32) | hi);
    const double scale = pair_rng.uniform(1.0 - config_.fault.loss_spread,
                                          1.0 + config_.fault.loss_spread);
    loss_prob_ = std::clamp(config_.fault.loss_rate * scale, 0.0, 1.0);
    corrupt_rng_ = Rng(config_.fault.seed)
                       .split("corrupt", static_cast<std::uint64_t>(meeting_index_));
    corrupt_enabled_ = loss_prob_ > 0.0;
  }

  // Metadata-channel degradation: a degraded contact keeps only
  // meta_survive_fraction of its metadata budget (the control channel fades
  // before the data channel does).
  double meta_survive = 1.0;
  if (config_.fault.meta_degrade_rate > 0.0) {
    Rng meta_rng = Rng(config_.fault.seed)
                       .split("meta", static_cast<std::uint64_t>(meeting_index_));
    if (meta_rng.bernoulli(config_.fault.meta_degrade_rate)) {
      meta_survive = std::clamp(config_.fault.meta_survive_fraction, 0.0, 1.0);
      stats_.metadata_degraded = true;
      RAPID_OBS_INC(kFaultMetaDegraded);
    }
  }

  // --- Step 1: metadata exchange -------------------------------------------
  Bytes used_a = 0;
  Bytes used_b = 0;
  if (!config_.link.asymmetric()) {
    budget_ab_ = meeting_.capacity;
    Bytes meta_budget = budget_ab_;
    if (config_.metadata_cap_fraction >= 0) {
      meta_budget = std::min<Bytes>(
          budget_ab_, static_cast<Bytes>(config_.metadata_cap_fraction *
                                         static_cast<double>(meeting_.capacity)));
    }
    if (meta_survive < 1.0)
      meta_budget = static_cast<Bytes>(meta_survive * static_cast<double>(meta_budget));
    used_a = std::min(a_.contact_begin(b_, meeting_.time, meta_budget), meta_budget);
    used_b = std::min(b_.contact_begin(a_, meeting_.time, meta_budget - used_a),
                      meta_budget - used_a);
    budget_ab_ -= used_a + used_b;
  } else {
    // Directional budgets: each side's metadata rides its own uplink.
    budget_ab_ = static_cast<Bytes>(config_.link.forward_fraction *
                                    static_cast<double>(meeting_.capacity));
    budget_ba_ = meeting_.capacity - budget_ab_;
    const auto dir_meta_budget = [&](Bytes dir_budget) {
      if (config_.metadata_cap_fraction < 0) return dir_budget;
      return std::min<Bytes>(dir_budget,
                             static_cast<Bytes>(config_.metadata_cap_fraction *
                                                static_cast<double>(dir_budget)));
    };
    Bytes meta_a = dir_meta_budget(budget_ab_);
    Bytes meta_b = dir_meta_budget(budget_ba_);
    if (meta_survive < 1.0) {
      meta_a = static_cast<Bytes>(meta_survive * static_cast<double>(meta_a));
      meta_b = static_cast<Bytes>(meta_survive * static_cast<double>(meta_b));
    }
    used_a = std::min(a_.contact_begin(b_, meeting_.time, meta_a), meta_a);
    used_b = std::min(b_.contact_begin(a_, meeting_.time, meta_b), meta_b);
    budget_ab_ -= used_a;
    budget_ba_ -= used_b;
  }
  stats_.metadata_bytes = used_a + used_b;
  metrics_.record_metadata(stats_.metadata_bytes);
  RAPID_OBS_ADD(kContactMetadataBytes, stats_.metadata_bytes);

  if (effective_capacity >= 0)
    data_cutoff_ = std::max<Bytes>(0, effective_capacity - stats_.metadata_bytes);
}

void Contact::charge_partial(bool from_a, const Packet& p, Bytes bytes) {
  stats_.data_bytes += bytes;
  stats_.partial_bytes += bytes;
  ++stats_.partial_transfers;
  metrics_.record_partial_transfer(bytes);
  RAPID_OBS_INC(kContactPartialTransfers);
  RAPID_OBS_ADD(kContactPartialBytes, bytes);
  RAPID_OBS_TRACE(kPacketPartial, meeting_.time, sender(from_a).self(),
                  receiver(from_a).self(), p.id, bytes);
}

void Contact::perform_transfer(bool from_a, const Packet& p) {
  Router& snd = sender(from_a);
  Router& rcv = receiver(from_a);
  const std::int64_t aux = snd.transfer_aux(p, rcv);
  // The copy crosses the air: the bytes are spent whatever the outcome.
  send_budget(from_a) -= p.size;
  data_moved_ += p.size;
  stats_.data_bytes += p.size;
  RAPID_OBS_ADD(kContactDataBytes, p.size);
  RAPID_OBS_HIST(kContactTransferBytes, p.size);

  if (corrupt_enabled_ && corrupt_rng_.bernoulli(loss_prob_)) {
    // The copy arrives corrupted: the bytes are burned in full, the receiver
    // discards the slice (accounting stays exact — nothing was stored), and
    // the sender moves past the packet as it would after a rejection.
    ++stats_.corrupted_transfers;
    stats_.corrupted_bytes += p.size;
    metrics_.record_corrupted_transfer(p.size);
    RAPID_OBS_INC(kFaultCorruptedTransfers);
    RAPID_OBS_ADD(kFaultCorruptedBytes, p.size);
    RAPID_OBS_TRACE(kPacketCorrupt, meeting_.time, snd.self(), rcv.self(), p.id,
                    p.size);
    snd.on_transfer_failed(p, rcv, meeting_.time);
    return;
  }

  metrics_.record_data_transfer(p.size);
  ++stats_.transfers;
  RAPID_OBS_INC(kContactTransfers);

  const ReceiveOutcome outcome = rcv.receive_copy(p, snd, aux, meeting_.time);
  switch (outcome) {
    case ReceiveOutcome::kDelivered:
      metrics_.record_delivery(p.id, meeting_.time);
      ++stats_.deliveries;
      RAPID_OBS_INC(kContactDeliveries);
      RAPID_OBS_TRACE(kPacketDeliver, meeting_.time, snd.self(), rcv.self(), p.id,
                      p.size);
      snd.on_transfer_success(p, rcv, outcome, meeting_.time);
      break;
    case ReceiveOutcome::kStored:
      RAPID_OBS_TRACE(kPacketCopy, meeting_.time, snd.self(), rcv.self(), p.id,
                      p.size);
      snd.on_transfer_success(p, rcv, outcome, meeting_.time);
      break;
    case ReceiveOutcome::kDuplicateDelivery:
      snd.on_transfer_success(p, rcv, outcome, meeting_.time);
      break;
    case ReceiveOutcome::kDuplicate:
    case ReceiveOutcome::kRejected:
      // Make sure the sender cannot spin on the same packet.
      snd.on_transfer_failed(p, rcv, meeting_.time);
      break;
  }
}

void Contact::transfer() {
  RAPID_OBS_PHASE(kTransfer);
  bool a_done = false;
  bool b_done = false;
  bool a_turn = true;
  while (true) {
    // The link policy's cut, checked first so a cutoff of zero (metadata ate
    // the surviving capacity) still tears the link down.
    if (data_cutoff_ >= 0 && data_moved_ >= data_cutoff_) {
      stats_.interrupted = true;
      return;
    }
    if (a_done && b_done) return;
    if (!config_.link.asymmetric()) {
      if (budget_ab_ <= 0) return;
    } else if (budget_ab_ <= 0 && budget_ba_ <= 0) {
      return;
    }

    const bool from_a = a_turn ? !a_done : b_done;
    a_turn = !a_turn;
    const ContactContext ctx{meeting_.time, send_budget(from_a), meeting_index_};
    std::optional<PacketId> offer;
    {
      // The protocol's candidate evaluation is routing time, distinct from
      // the transfer mechanics around it.
      RAPID_OBS_PHASE(kRouting);
      offer = sender(from_a).next_transfer(ctx, receiver(from_a));
    }
    if (!offer.has_value()) {
      (from_a ? a_done : b_done) = true;
      continue;
    }

    const Packet& p = pool_.get(*offer);
    if (p.size > send_budget(from_a)) {
      // The protocol offered something that no longer fits; this side is done.
      (from_a ? a_done : b_done) = true;
      continue;
    }
    if (data_cutoff_ >= 0 && data_moved_ + p.size > data_cutoff_) {
      // The link dies while this copy is in the air: charge the bytes it
      // burned, discard the incomplete copy, and end the contact.
      const Bytes burned = data_cutoff_ - data_moved_;
      charge_partial(from_a, p, burned);
      data_moved_ += burned;
      stats_.interrupted = true;
      return;
    }
    perform_transfer(from_a, p);
  }
}

void Contact::close() {
  {
    RAPID_OBS_PHASE(kRouting);
    a_.contact_end(b_, meeting_.time);
    b_.contact_end(a_, meeting_.time);
  }
  RAPID_OBS_TRACE(kContactClose, meeting_.time, a_.self(), b_.self(),
                  static_cast<PacketId>(stats_.interrupted ? 1 : 0), data_moved_);
}

}  // namespace

ContactStats run_contact(Router& x, Router& y, const Meeting& meeting, int meeting_index,
                         const ContactConfig& config, const PacketPool& pool,
                         MetricsCollector& metrics) {
  return Contact(x, y, meeting, meeting_index, config, pool, metrics).run();
}

}  // namespace rapid
