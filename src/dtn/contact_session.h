// run_contact: one transfer opportunity, §3.4's protocol run start to finish.
//
//   1. observe_opportunity on both sides, then the link-policy and link-fault
//      draws for this meeting;
//   2. metadata / ack exchange (contact_begin), charged per config;
//   3. alternating next_transfer offers until both sides are done, the data
//      budget is spent, or the link policy cuts the contact — the copy
//      crossing the cut is charged for the bytes it burned and discarded;
//   4. contact_end on both sides.
//
// The engine runs contacts one at a time, so a router is in at most one open
// contact (dtn/router.h relies on this). Two properties of real links are
// modelled: a contact can end mid-transfer (LinkPolicy::interruption_rate)
// and the two directions can carry separate budgets
// (LinkPolicy::forward_fraction). With neither, both directions draw from
// one shared pool, as in the paper's simulations.
#pragma once

#include "dtn/metrics.h"
#include "dtn/packet.h"
#include "dtn/router.h"
#include "dtn/schedule.h"
#include "fault/fault_config.h"

namespace rapid {

// How the physical link behaves over a contact, beyond its capacity.
struct LinkPolicy {
  // Fraction of contacts cut short mid-transfer. An interrupted contact keeps
  // only a uniform draw in [min_completion, max_completion) of its capacity;
  // the packet crossing the cut is charged for the bytes it burned and the
  // incomplete copy is discarded by the receiver.
  double interruption_rate = 0.0;
  double min_completion = 0.1;
  double max_completion = 0.9;
  // Directional bandwidth split: the a->b direction of a meeting gets
  // forward_fraction * capacity, b->a the rest. Negative (default) keeps the
  // legacy shared symmetric pool where both directions draw from one budget.
  double forward_fraction = -1.0;
  // Seed for the per-meeting interruption draws (split by meeting index, so
  // outcomes are independent of sweep execution order and thread count).
  std::uint64_t seed = 0x11A7;

  bool asymmetric() const { return forward_fraction >= 0.0; }
};

struct ContactConfig {
  // Cap on metadata as a fraction of the opportunity size (Fig 8 sweeps
  // this); negative = unlimited ("as much bandwidth ... as it requires").
  double metadata_cap_fraction = -1.0;
  LinkPolicy link;
  // Byte-level link faults (src/fault): per-copy corruption with a loss
  // probability drawn per node pair, and metadata-channel degradation. All
  // draws use streams split off fault.seed, disjoint from the link-policy
  // interruption stream, so a zero-rate fault config is bit-identical to no
  // fault config at all.
  LinkFaultConfig fault;
};

struct ContactStats {
  Bytes metadata_bytes = 0;
  Bytes data_bytes = 0;  // includes the charged bytes of partial transfers
  int transfers = 0;     // completed copies only
  int deliveries = 0;
  // Interruption accounting.
  int partial_transfers = 0;  // copies cut mid-air (discarded but charged)
  Bytes partial_bytes = 0;
  bool interrupted = false;
  // Link-fault accounting: copies that crossed the air corrupted (charged in
  // full, discarded by the receiver) and whether the metadata channel was
  // degraded for this contact.
  int corrupted_transfers = 0;
  Bytes corrupted_bytes = 0;
  bool metadata_degraded = false;
};

// Runs the contact between `x` (the meeting's a side) and `y` to completion.
// `meeting_index` keys the per-meeting link-policy and fault draws, so the
// outcome is independent of sweep execution order and thread count.
ContactStats run_contact(Router& x, Router& y, const Meeting& meeting, int meeting_index,
                         const ContactConfig& config, const PacketPool& pool,
                         MetricsCollector& metrics);

}  // namespace rapid
