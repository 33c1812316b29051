// Runtime observability: one ObsContext per simulation run bundles the
// metrics registry (obs/metrics_registry.h), the binary trace ring
// (obs/trace.h) and the per-phase profile (obs/profile.h).
//
// Hot paths reach the context through a thread-local pointer installed by
// whoever owns the run (Simulation installs its context around every
// step), so instrumented code never threads an extra parameter through the
// router/contact call chain and never takes a lock: a counter bump is a TLS
// load, a branch, and an array increment. Runs execute one per thread (the
// sweep executor's cells), so per-run contexts are unsynchronized by
// construction.
//
// Everything here is compiled out when the CMake option RAPID_OBS is OFF
// (RAPID_OBS_ENABLED == 0): the macros expand to nothing and the context
// scopes become empty structs, so the stripped hot path carries zero
// observability cost. The determinism contract holds in every mode:
// observability only watches — tracing or profiling a run never changes its
// figure output (enforced by tests and the CI obs job).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/types.h"

#ifndef RAPID_OBS_ENABLED
#define RAPID_OBS_ENABLED 1
#endif

namespace rapid::obs {

struct ObsConfig {
  // Wall-clock phase attribution (one steady_clock read per scope boundary).
  // Off by default: counters are always on, clocks are opt-in.
  bool profile = false;
  // Trace ring capacity in events; 0 disables tracing entirely.
  std::size_t trace_capacity = 0;
};

// Everything one run's instrumentation produced, packaged by
// ObsContext::report() (and carried on SimResult::obs).
struct ObsReport {
  MetricsSnapshot metrics;
  PhaseProfile profile;
  std::vector<TraceEvent> trace;  // chronological; empty unless traced
  std::uint64_t trace_total = 0;
  std::uint64_t trace_dropped = 0;
};

class ObsContext {
 public:
  explicit ObsContext(const ObsConfig& config = {})
      : trace(config.trace_capacity) {
    profile.enabled = config.profile;
  }

  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  MetricsRegistry metrics;
  TraceBuffer trace;
  PhaseProfile profile;

  // Scope state of the exclusive-time phase accounting (see obs/profile.h);
  // touched only by PhaseScope.
  static constexpr int kMaxPhaseDepth = 16;
  int phase_depth = 0;
  std::int8_t current_phase = -1;
  std::uint64_t last_mark = 0;
  std::array<std::int8_t, kMaxPhaseDepth> phase_stack{};

  ObsReport report() const {
    ObsReport r;
    // Trace occupancy folds into the snapshot here so the registry itself
    // never has to watch the ring.
    MetricsRegistry final_metrics = metrics;
    final_metrics.gauge_max(Gauge::kTraceEvents, trace.total());
    final_metrics.add(Counter::kTraceDropped, trace.dropped());
    r.metrics = final_metrics.snapshot();
    r.profile = profile;
    r.trace_total = trace.total();
    r.trace_dropped = trace.dropped();
    if (trace.enabled()) r.trace = trace.chronological();
    return r;
  }
};

inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if RAPID_OBS_ENABLED

// The run installed on this thread, or null outside any instrumented run.
ObsContext* current();
void set_current(ObsContext* ctx);

// RAII install/restore of the thread-local context; nests (an inner scope
// restores the outer run on exit).
class ContextScope {
 public:
  explicit ContextScope(ObsContext* ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ObsContext* prev_;
};

// Exclusive-time phase scope: suspends the enclosing phase's clock for the
// duration. Inactive (a TLS load + branch) when no context is installed or
// profiling is off.
class PhaseScope {
 public:
  explicit PhaseScope(Phase p) {
    ObsContext* c = current();
    if (c == nullptr || !c->profile.enabled ||
        c->phase_depth >= ObsContext::kMaxPhaseDepth)
      return;
    ctx_ = c;
    const std::uint64_t now = monotonic_ns();
    if (c->current_phase >= 0)
      c->profile.ns[static_cast<std::size_t>(c->current_phase)] += now - c->last_mark;
    c->phase_stack[static_cast<std::size_t>(c->phase_depth++)] = c->current_phase;
    c->current_phase = static_cast<std::int8_t>(p);
    ++c->profile.calls[static_cast<std::size_t>(p)];
    c->last_mark = now;
  }
  ~PhaseScope() {
    if (ctx_ == nullptr) return;
    const std::uint64_t now = monotonic_ns();
    ctx_->profile.ns[static_cast<std::size_t>(ctx_->current_phase)] +=
        now - ctx_->last_mark;
    ctx_->current_phase = ctx_->phase_stack[static_cast<std::size_t>(--ctx_->phase_depth)];
    ctx_->last_mark = now;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  ObsContext* ctx_ = nullptr;
};

#define RAPID_OBS_CONCAT_INNER(a, b) a##b
#define RAPID_OBS_CONCAT(a, b) RAPID_OBS_CONCAT_INNER(a, b)

#define RAPID_OBS_ADD(counter, n)                                         \
  do {                                                                    \
    if (::rapid::obs::ObsContext* _obs_c = ::rapid::obs::current())       \
      _obs_c->metrics.add(::rapid::obs::Counter::counter,                 \
                          static_cast<std::uint64_t>(n));                 \
  } while (0)
#define RAPID_OBS_INC(counter) RAPID_OBS_ADD(counter, 1)
#define RAPID_OBS_GAUGE_MAX(gauge, v)                                     \
  do {                                                                    \
    if (::rapid::obs::ObsContext* _obs_c = ::rapid::obs::current())       \
      _obs_c->metrics.gauge_max(::rapid::obs::Gauge::gauge,               \
                                static_cast<std::uint64_t>(v));           \
  } while (0)
#define RAPID_OBS_HIST(hist, v)                                           \
  do {                                                                    \
    if (::rapid::obs::ObsContext* _obs_c = ::rapid::obs::current())       \
      _obs_c->metrics.observe(::rapid::obs::Hist::hist,                   \
                              static_cast<std::uint64_t>(v));             \
  } while (0)
#define RAPID_OBS_TRACE(kind, t, na, nb, pkt, val)                        \
  do {                                                                    \
    ::rapid::obs::ObsContext* _obs_c = ::rapid::obs::current();           \
    if (_obs_c != nullptr && _obs_c->trace.enabled())                     \
      _obs_c->trace.emit({(t), ::rapid::obs::TraceEventKind::kind, (na),  \
                          (nb), (pkt), (val)});                           \
  } while (0)
#define RAPID_OBS_PHASE(phase)                         \
  ::rapid::obs::PhaseScope RAPID_OBS_CONCAT(           \
      _rapid_obs_phase_, __LINE__)(::rapid::obs::Phase::phase)

#else  // !RAPID_OBS_ENABLED — everything strips to nothing.

inline ObsContext* current() { return nullptr; }
inline void set_current(ObsContext*) {}

class ContextScope {
 public:
  explicit ContextScope(ObsContext*) {}
};
class PhaseScope {
 public:
  explicit PhaseScope(Phase) {}
};

#define RAPID_OBS_ADD(counter, n) ((void)0)
#define RAPID_OBS_INC(counter) ((void)0)
#define RAPID_OBS_GAUGE_MAX(gauge, v) ((void)0)
#define RAPID_OBS_HIST(hist, v) ((void)0)
#define RAPID_OBS_TRACE(kind, t, na, nb, pkt, val) ((void)0)
#define RAPID_OBS_PHASE(phase) ((void)0)

#endif  // RAPID_OBS_ENABLED

}  // namespace rapid::obs
