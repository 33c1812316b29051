#include "baselines/prophet.h"

#include <algorithm>
#include <cmath>

#include "core/metadata.h"  // wire-size constants for metadata accounting
#include "util/binio.h"

namespace rapid {

ProphetRouter::ProphetRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                             const ProphetConfig& config)
    : Router(self, buffer_capacity, ctx), config_(config) {
  p_.assign(static_cast<std::size_t>(ctx->num_nodes), 0.0);
}

void ProphetRouter::age_to(Time now) const {
  if (now <= last_aged_) return;
  const double k = (now - last_aged_) / config_.aging_unit;
  const double factor = std::pow(config_.gamma, k);
  for (double& v : p_) v *= factor;
  last_aged_ = now;
}

double ProphetRouter::predictability(NodeId dst, Time now) const {
  age_to(now);
  return p_[static_cast<std::size_t>(dst)];
}

Bytes ProphetRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);
  age_to(now);

  // Direct-encounter update.
  auto& mine = p_[static_cast<std::size_t>(peer.self())];
  mine = mine + (1.0 - mine) * config_.p_init;

  // Transitive update from the peer's vector (its contact_begin may not have
  // run yet this meeting, but its vector is aged on read).
  auto* prophet_peer = peer.as<ProphetRouter>();
  if (prophet_peer == nullptr) return 0;
  const double p_ab = mine;
  for (NodeId d = 0; d < ctx().num_nodes; ++d) {
    if (d == self() || d == peer.self()) continue;
    const double p_bd = prophet_peer->predictability(d, now);
    const double transitive = p_ab * p_bd * config_.beta;
    auto& slot = p_[static_cast<std::size_t>(d)];
    slot = std::max(slot, transitive);
  }
  // The exchanged vector costs one entry per node.
  const Bytes cost = kMeetingRowEntryBytes * static_cast<Bytes>(ctx().num_nodes);
  return std::min(cost, meta_budget);
}

void ProphetRouter::build_plan(const ContactContext& contact, const PeerView& peer) {
  auto* prophet_peer = peer.as<ProphetRouter>();
  forwards_.clear();
  // The oldest-first order makes the direct tier a plain filter; only the
  // peer-dependent GRTR tier sorts, and only over the packets it admits.
  for (const auto& [created, id] : oldest_first()) {
    const Packet& p = ctx().packet(id);
    if (p.dst == peer.self()) {
      plan().direct.push_back(id);
      continue;
    }
    if (prophet_peer == nullptr) continue;
    const double theirs = prophet_peer->predictability(p.dst, contact.now);
    const double ours = predictability(p.dst, contact.now);
    if (theirs > ours) forwards_.emplace_back(theirs, id);  // GRTR
  }
  std::stable_sort(forwards_.begin(), forwards_.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [theirs, id] : forwards_) plan().replicate.push_back(id);
}

PacketId ProphetRouter::choose_drop_victim(const Packet& /*incoming*/, Time now) {
  PacketId victim = kNoPacket;
  double lowest = 0;
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const double p = predictability(ctx().packet(id).dst, now);
    if (victim == kNoPacket || p < lowest) {
      victim = id;
      lowest = p;
    }
  });
  return victim;
}

void ProphetRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("PRPH");
  out.u64(p_.size());
  for (double v : p_) out.f64(v);
  out.f64(last_aged_);
}

void ProphetRouter::load_state(BinReader& in) {
  Router::load_state(in);
  in.expect_tag("PRPH");
  if (in.u64() != p_.size()) BinReader::fail("prophet vector size differs from the snapshot's");
  for (double& v : p_) v = in.f64();
  last_aged_ = in.f64();
}

RouterFactory make_prophet_factory(const ProphetConfig& config, Bytes buffer_capacity) {
  return [config, buffer_capacity](NodeId node, const SimContext& ctx) {
    return std::make_unique<ProphetRouter>(node, buffer_capacity, &ctx, config);
  };
}

}  // namespace rapid
