// Outside-in timing for the traced benchmark run.
//
// Nothing here touches the library: routers are timed by subclassing each
// protocol's router (Timed<R> : R), the contact stream by decorating the
// MobilityModel, and the engine by rapid_perf.cpp's own clocks.
// Timed<R> must be a subclass, not a wrapping decorator: PeerView::as<R>() is
// a dynamic_cast, so a decorator would silently stop RAPID peers from
// recognising each other and change every routing decision.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mobility/mobility_model.h"
#include "sim/protocols.h"

namespace perf {

using namespace rapid;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Timed router hooks. kObserve..kAux are routing work inside a contact span;
// kGenerate runs outside spans; kReceive and kEvict are buffer mechanics
// (dtn layer). kEvict nests inside kReceive or kGenerate, never the others.
enum Hook : int {
  kObserve,
  kBegin,
  kPlan,  // first next_transfer of each side of a contact: plan build
  kNext,  // every later next_transfer
  kSuccess,
  kFailed,
  kEnd,
  kAux,  // transfer_aux: the protocol word carried with each copy
  kGenerate,
  kReceive,
  kEvict,
  kHookCount
};
constexpr int kSpanRouteHooks = kAux + 1;  // kObserve..kAux
inline const char* hook_name(int hook) {
  static const char* const kNames[kHookCount] = {
      "observe", "begin", "plan", "next", "success", "failed",
      "end",     "aux",   "generate", "receive", "evict"};
  return kNames[hook];
}

struct HookTotal {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

// One contact, from the first observe_opportunity to the second contact_end,
// with the time each hook spent inside it (nested hooks count in both).
struct ContactSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  std::array<std::uint64_t, kHookCount> hook_ns{};
};

// Per-process sink for every timed call. Contacts run strictly one after
// another in a serial Simulation, so at most one span is open at a time.
class Tracer {
 public:
  void record(int hook, std::uint64_t start, std::uint64_t end) {
    totals_[hook].calls += 1;
    totals_[hook].ns += end - start;
    if (open_)
      current_.hook_ns[hook] += end - start;
    else if (hook < kSpanRouteHooks)
      ++unspanned_;
  }

  void observe_start(NodeId self, std::uint64_t start) {
    if (open_) {
      if (current_.b == kNoNode && self != current_.a) current_.b = self;
      return;
    }
    open_ = true;
    current_ = ContactSpan{};
    current_.start_ns = start;
    current_.a = self;
    ends_ = 0;
    planned_ = {kNoNode, kNoNode};
  }

  // Called after record(kEnd), which counts an end with no contact open.
  void contact_ended(std::uint64_t end) {
    if (!open_ || ++ends_ < 2) return;
    current_.end_ns = end;
    spans_.push_back(current_);
    open_ = false;
  }

  // True for the first next_transfer of `self` in the open contact.
  bool first_offer(NodeId self) {
    if (!open_) return false;  // record() counts it
    for (NodeId& planned : planned_) {
      if (planned == self) return false;
      if (planned == kNoNode) {
        planned = self;
        return true;
      }
    }
    return false;
  }

  void count_offer(bool offered) { offers_ += offered ? 1 : 0; }
  void count_outcome(ReceiveOutcome outcome) {
    accepted_ +=
        (outcome == ReceiveOutcome::kStored || outcome == ReceiveOutcome::kDelivered) ? 1 : 0;
  }

  void mobility(std::uint64_t ns, bool popped) {
    mobility_ns_ += ns;
    mobility_pops_ += popped ? 1 : 0;
  }

  const std::array<HookTotal, kHookCount>& totals() const { return totals_; }
  const std::vector<ContactSpan>& spans() const { return spans_; }
  std::uint64_t offers() const { return offers_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t mobility_ns() const { return mobility_ns_; }
  std::uint64_t mobility_pops() const { return mobility_pops_; }
  // Routing hooks other than on_generate that ran with no contact open
  // (should stay 0), plus a span still open at the end of a run.
  std::uint64_t unspanned() const { return unspanned_ + (open_ ? 1 : 0); }

 private:
  std::array<HookTotal, kHookCount> totals_{};
  std::vector<ContactSpan> spans_;
  ContactSpan current_;
  bool open_ = false;
  int ends_ = 0;
  std::array<NodeId, 2> planned_{kNoNode, kNoNode};
  std::uint64_t offers_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t mobility_ns_ = 0;
  std::uint64_t mobility_pops_ = 0;
  std::uint64_t unspanned_ = 0;
};

// RAII clock around one hook call.
class HookTimer {
 public:
  HookTimer(Tracer& tracer, int hook) : tracer_(tracer), hook_(hook), start_(now_ns()) {}
  ~HookTimer() { tracer_.record(hook_, start_, now_ns()); }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  Tracer& tracer_;
  int hook_;
  std::uint64_t start_;
};

// Times every public Router hook of R, then defers to R.
template <typename R>
class Timed final : public R {
 public:
  template <typename... Args>
  explicit Timed(Tracer& tracer, Args&&... args)
      : R(std::forward<Args>(args)...), tracer_(tracer) {}

  bool on_generate(const Packet& p) override {
    const HookTimer timer(tracer_, kGenerate);
    return R::on_generate(p);
  }
  void observe_opportunity(Bytes capacity, NodeId peer, Time now) override {
    const std::uint64_t start = now_ns();
    tracer_.observe_start(this->self(), start);
    R::observe_opportunity(capacity, peer, now);
    tracer_.record(kObserve, start, now_ns());
  }
  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override {
    const HookTimer timer(tracer_, kBegin);
    return R::contact_begin(peer, now, meta_budget);
  }
  std::optional<PacketId> next_transfer(const ContactContext& contact,
                                        const PeerView& peer) override {
    const HookTimer timer(tracer_, tracer_.first_offer(this->self()) ? kPlan : kNext);
    std::optional<PacketId> offer = R::next_transfer(contact, peer);
    tracer_.count_offer(offer.has_value());
    return offer;
  }
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override {
    const HookTimer timer(tracer_, kSuccess);
    R::on_transfer_success(p, peer, outcome, now);
  }
  void on_transfer_failed(const Packet& p, const PeerView& peer, Time now) override {
    const HookTimer timer(tracer_, kFailed);
    R::on_transfer_failed(p, peer, now);
  }
  std::int64_t transfer_aux(const Packet& p, const PeerView& peer) override {
    const HookTimer timer(tracer_, kAux);
    return R::transfer_aux(p, peer);
  }
  ReceiveOutcome receive_copy(const Packet& p, const PeerView& from, std::int64_t aux,
                              Time now) override {
    const HookTimer timer(tracer_, kReceive);
    const ReceiveOutcome outcome = R::receive_copy(p, from, aux, now);
    tracer_.count_outcome(outcome);
    return outcome;
  }
  void contact_end(const PeerView& peer, Time now) override {
    const std::uint64_t start = now_ns();
    R::contact_end(peer, now);
    const std::uint64_t end = now_ns();
    tracer_.record(kEnd, start, end);
    tracer_.contact_ended(end);
  }
  PacketId choose_drop_victim(const Packet& incoming, Time now) override {
    const HookTimer timer(tracer_, kEvict);
    return R::choose_drop_victim(incoming, now);
  }

 private:
  Tracer& tracer_;
};

// Mirror of make_protocol_factory for the protocols the benchmark runs, with
// every router wrapped in Timed<>. The traced run must reproduce the untraced
// SimResult bit for bit, which is what proves this mirror stays in sync.
inline RouterFactory make_timed_factory(ProtocolKind kind, const ProtocolParams& params,
                                        Bytes buffer, Tracer& tracer) {
  switch (kind) {
    case ProtocolKind::kRapid: {
      RapidConfig config;
      config.metric = params.metric;
      config.prior_meeting_time = params.rapid_prior_meeting_time;
      config.prior_opportunity_bytes = params.rapid_prior_opportunity;
      config.utility.delay_cap = params.rapid_delay_cap;
      config.use_utility_cache = params.rapid_incremental_cache;
      config.control = ControlChannelMode::kInBand;
      return [config, buffer, &tracer](NodeId node, const SimContext& ctx) {
        return std::make_unique<Timed<RapidRouter>>(tracer, node, buffer, &ctx, config,
                                                    nullptr);
      };
    }
    case ProtocolKind::kMaxProp:
      return [buffer, &tracer](NodeId node, const SimContext& ctx) {
        return std::make_unique<Timed<MaxPropRouter>>(tracer, node, buffer, &ctx,
                                                      MaxPropConfig{});
      };
    case ProtocolKind::kSprayWait: {
      SprayWaitConfig config;
      config.initial_copies = params.spray_copies;
      return [config, buffer, &tracer](NodeId node, const SimContext& ctx) {
        return std::make_unique<Timed<SprayWaitRouter>>(tracer, node, buffer, &ctx, config);
      };
    }
    case ProtocolKind::kRandom:
      return [buffer, &tracer](NodeId node, const SimContext& ctx) {
        return std::make_unique<Timed<RandomRouter>>(tracer, node, buffer, &ctx,
                                                     RandomConfig{false});
      };
    case ProtocolKind::kEpidemic:
      return [buffer, &tracer](NodeId node, const SimContext& ctx) {
        return std::make_unique<Timed<EpidemicRouter>>(tracer, node, buffer, &ctx,
                                                       EpidemicConfig{false});
      };
    default:
      throw std::invalid_argument("make_timed_factory: protocol not used by the benchmark");
  }
}

// Times the contact stream: every peek (where lazy generation happens) and
// pop of the wrapped model.
class TimedModel final : public MobilityModel {
 public:
  TimedModel(std::unique_ptr<MobilityModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int num_nodes() const override { return inner_->num_nodes(); }
  Time duration() const override { return inner_->duration(); }
  const Meeting* peek() override {
    const std::uint64_t start = now_ns();
    const Meeting* m = inner_->peek();
    tracer_.mobility(now_ns() - start, false);
    return m;
  }
  void pop() override {
    const std::uint64_t start = now_ns();
    inner_->pop();
    tracer_.mobility(now_ns() - start, true);
  }

 private:
  std::unique_ptr<MobilityModel> inner_;
  Tracer& tracer_;
};

}  // namespace perf
