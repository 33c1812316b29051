// rapid_perf: runs one benchmark workload in this process and prints one
// JSON record on stdout. benchmark/run.py builds it, runs it in a fresh
// process per measurement and turns the record into the benchmark's result.
//
// Usage: rapid_perf --workload NAME [--seed S] [--seconds T] [--trace]
//                   [--work-dir DIR] [--trace-out PATH]
//
// Every run is serial: one simulation thread, no sweep pool. The process
// first sets the workload up kSetupOnlyReps times (timing each set-up, then
// discarding it), then runs whole iterations (set-up + measured run) until
// --seconds have passed, at least one. With --trace it adds one traced
// iteration (timed routers and contact stream, see timed.h) and reports the
// per-layer split instead of the end-to-end metrics.
//
// Workloads (why each was chosen: benchmark/README.md):
//   powerlaw-sat       powerlaw-stream, RAPID, load 0.25
//   powerlaw-light     powerlaw-stream, RAPID, load 0.02
//   powerlaw-epidemic  powerlaw-stream, Epidemic, load 0.25
//   trace-sweep        the Fig-4 sweep: trace, 6 days x 6 loads x 4 protocols
//   serve-powerlaw     powerlaw-large run 0 replayed through ServiceEngine
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "dtn/workload.h"
#include "runner/scenario_registry.h"
#include "service/service_engine.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "timed.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

std::atomic<unsigned long long> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Counting allocator hook for this binary only; counting is switched on
// around the measured run so set-up and teardown stay out of the number.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perf {
namespace {

constexpr int kSetupOnlyReps = 4;
constexpr int kMaxIterations = 50;

// --- workload definitions ---------------------------------------------------

struct SimCell {
  ProtocolKind protocol = ProtocolKind::kRapid;
  int run = 0;
  double load = 0;
};

struct SimWorkload {
  std::string scenario;
  std::vector<SimCell> cells;
};

std::vector<SimCell> fig4_cells() {
  std::vector<SimCell> cells;
  for (ProtocolKind protocol : {ProtocolKind::kRapid, ProtocolKind::kMaxProp,
                                ProtocolKind::kSprayWait, ProtocolKind::kRandom})
    for (double load : {2.0, 6.0, 12.0, 20.0, 30.0, 40.0})
      for (int day = 0; day < 6; ++day) cells.push_back({protocol, day, load});
  return cells;
}

const std::map<std::string, SimWorkload>& sim_workloads() {
  static const std::map<std::string, SimWorkload> workloads = {
      {"powerlaw-sat", {"powerlaw-stream", {{ProtocolKind::kRapid, 0, 0.25}}}},
      {"powerlaw-light", {"powerlaw-stream", {{ProtocolKind::kRapid, 0, 0.02}}}},
      {"powerlaw-epidemic", {"powerlaw-stream", {{ProtocolKind::kEpidemic, 0, 0.25}}}},
      {"trace-sweep", {"trace", fig4_cells()}},
  };
  return workloads;
}

// serve-powerlaw: a closed-loop replay, one calling thread making calls back
// to back; not an arrival-rate test. The mix follows the project's own serve
// operating points rather than free choices:
//   - load 3 is the load powerlaw-large is registered for (">= 10k packets
//     at load 3", runner/scenario_registry.cpp);
//   - one tick per contact time: the feed delivers the contacts of that
//     instant and the engine advances to it, as a followed live trace does;
//   - one query group per tick (delay, utility, replicas of one packet, the
//     group tests/data/serve_queries.txt opens with), so a run has ~2.5k
//     query samples and its p99 rests on ~25 of them;
//   - a checkpoint at every quarter of the horizon and a restore from the
//     half-way one, as `serve --snapshot-every=1800` on the 7200 s day of
//     docs/SERVICE.md and the CI restore job do.
// Checkpoints and the restore are fsynced file I/O the serve CLI does only
// when asked to, so they are timed on their own (service.snapshot_*,
// service.restore_s) and kept out of the end-to-end metrics.
constexpr const char* kServeScenario = "powerlaw-large";
constexpr double kServeLoad = 3.0;
constexpr int kServeCheckpoints = 4;
constexpr int kServeRestoreCheckpoint = 2;

// --- results ----------------------------------------------------------------

template <typename T>
void append_bytes(std::string& out, const T& value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.append(raw, sizeof(T));
}

// Every scalar field of a SimResult plus its delivery-time vector.
std::uint32_t digest(const SimResult& r) {
  std::string bytes;
  for (std::uint64_t v : {std::uint64_t{r.total_packets}, std::uint64_t{r.delivered},
                          std::uint64_t{r.drops}, std::uint64_t{r.ack_purges},
                          std::uint64_t{r.meetings}, std::uint64_t{r.partial_transfers},
                          std::uint64_t{r.crashes}, std::uint64_t{r.recoveries},
                          std::uint64_t{r.meetings_suppressed},
                          std::uint64_t{r.fault_lost_packets},
                          std::uint64_t{r.corrupted_transfers}})
    append_bytes(bytes, v);
  for (Bytes v : {r.data_bytes, r.metadata_bytes, r.capacity_bytes, r.partial_bytes,
                  r.corrupted_bytes})
    append_bytes(bytes, v);
  for (double v : {r.delivery_rate, r.avg_delay, r.avg_delay_with_undelivered, r.max_delay,
                   r.deadline_rate, r.channel_utilization, r.metadata_over_capacity,
                   r.metadata_over_data})
    append_bytes(bytes, v);
  const std::uint32_t head = crc32(bytes);
  return crc32(r.delivery_time.data(), r.delivery_time.size() * sizeof(Time), head);
}

// What the correctness gate pins per workload, chained over every run in
// workload order.
struct Fingerprint {
  std::uint64_t packets = 0;
  std::uint64_t meetings = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint32_t avg_delay_crc = 0;
  std::uint32_t delivery_crc = 0;
  std::uint32_t result_crc = 0;
  std::uint32_t answers_crc = 0;  // serve only

  void add(const SimResult& r) {
    packets += r.total_packets;
    meetings += r.meetings;
    delivered += r.delivered;
    drops += r.drops;
    avg_delay_crc = crc32(&r.avg_delay, sizeof r.avg_delay, avg_delay_crc);
    delivery_crc = crc32(r.delivery_time.data(), r.delivery_time.size() * sizeof(Time),
                          delivery_crc);
    const std::uint32_t d = digest(r);
    result_crc = crc32(&d, sizeof d, result_crc);
  }
  bool operator==(const Fingerprint& o) const {
    return packets == o.packets && meetings == o.meetings && delivered == o.delivered &&
           drops == o.drops && avg_delay_crc == o.avg_delay_crc &&
           delivery_crc == o.delivery_crc && result_crc == o.result_crc &&
           answers_crc == o.answers_crc;
  }
};

// Counters read from each run's metrics registry.
struct RegistryCounts {
  std::uint64_t transfers = 0;
  std::uint64_t drops = 0;
  std::uint64_t delay_hits = 0;
  std::uint64_t delay_recomputes = 0;
  std::uint64_t rate_hits = 0;
  std::uint64_t rate_recomputes = 0;
  std::uint64_t tracked_packets = 0;  // max over runs

  void add(const SimResult& r) {
    if (r.obs == nullptr) return;
    const auto& m = r.obs->metrics;
    transfers += m.value("contact.transfers");
    drops += m.value("router.drops");
    delay_hits += m.value("utility.delay_hits");
    delay_recomputes += m.value("utility.delay_recomputes");
    rate_hits += m.value("utility.rate_hits");
    rate_recomputes += m.value("utility.rate_recomputes");
    tracked_packets = std::max<std::uint64_t>(tracked_packets,
                                              m.value("utility.tracked_packets"));
  }
};

struct SetupTimes {
  std::uint64_t scenario_ns = 0;
  std::uint64_t instance_ns = 0;
  std::uint64_t construct_ns = 0;
  std::uint64_t total() const { return scenario_ns + instance_ns + construct_ns; }
};

// Service-call timers (serve-powerlaw only).
struct ServiceTimes {
  std::uint64_t ingest_ns = 0;
  std::uint64_t advance_ns = 0;
  std::uint64_t query_ns = 0;
  std::uint64_t query_calls = 0;
  std::uint64_t snapshot_ns = 0;
  std::uint64_t snapshot_calls = 0;
  std::uint64_t restore_ns = 0;
  std::uint64_t snapshot_bytes = 0;  // the final snapshot
  std::vector<double> query_us;
  std::vector<double> snapshot_s;
};

struct Iteration {
  SetupTimes setup;
  std::uint64_t run_ns = 0;
  std::uint64_t contacts = 0;  // meetings dispatched in the measured run
  std::uint64_t allocations = 0;
  std::vector<double> step_us;
  Fingerprint fingerprint;
  RegistryCounts counts;
  ServiceTimes service;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> run_windows;  // traced only
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
};

void check(Iteration& it, bool ok, const std::string& what) {
  ++it.attempted;
  if (!ok) it.failures.push_back(what);
}

// Invariants every finished run must satisfy, whatever the seed.
void check_result(Iteration& it, const SimResult& r, const PacketPool& pool, int dispatched,
                  const std::string& where) {
  check(it, r.delivery_time.size() == pool.size() && r.total_packets == pool.size(),
        where + ": delivery_time has " + std::to_string(r.delivery_time.size()) +
            " entries for " + std::to_string(pool.size()) + " packets");
  std::size_t finite = 0;
  bool causal = true;
  for (const Packet& p : pool.all()) {
    const Time t = r.delivery_time[static_cast<std::size_t>(p.id)];
    if (!std::isfinite(t)) continue;
    ++finite;
    causal = causal && t >= p.created;
  }
  check(it, finite == r.delivered,
        where + ": delivered " + std::to_string(r.delivered) + " but " +
            std::to_string(finite) + " finite delivery times");
  check(it, causal, where + ": a packet was delivered before it was created");
  check(it, r.meetings == static_cast<std::size_t>(dispatched),
        where + ": meetings " + std::to_string(r.meetings) + " but " +
            std::to_string(dispatched) + " dispatched");
}

// run_instance's SimConfig wiring for the benchmark's scenarios, which are
// fault-free and run serially.
SimConfig sim_config(const Scenario& scenario, const Instance& inst) {
  SimConfig sim;
  sim.contact.link = scenario.config().link;
  sim.contact.link.seed ^= inst.link_seed;
  return sim;
}

ScenarioConfig scenario_config(const std::string& name) {
  return runner::ScenarioRegistry::global().make(name);
}

// The contact stream is always the registry's (a recorded trace, or a fixed
// synthetic fleet), as the paper replays the same DieselNet days under
// different traffic; --seed draws the traffic. Different contact streams
// would change how much work a run is, and that would swamp the spread
// between seeds. With the registry seed this is Scenario::instance exactly
// (the pinned outputs check it).
Instance make_instance(const Scenario& scenario, int run, double load,
                       std::uint64_t traffic_seed) {
  Instance inst = scenario.instance(run, 0.0);  // everything but the packets
  const ScenarioConfig& config = scenario.config();
  WorkloadConfig wl;
  wl.packet_size = config.packet_size;
  wl.deadline = config.deadline;
  wl.urgent_deadline = config.urgent_deadline;
  wl.urgent_fraction = config.urgent_fraction;
  wl.duration = inst.duration;
  if (config.mobility == MobilityKind::kTrace) {
    wl.packets_per_period_per_pair = load;  // per hour per source-destination pair
    wl.load_period = kSecondsPerHour;
  } else {
    wl.packets_per_period_per_pair = load / static_cast<double>(inst.num_nodes - 1);
    wl.load_period = 50.0;
  }
  Rng rng = Rng(traffic_seed)
                .split("workload-run", static_cast<std::uint64_t>(run))
                .split("load", static_cast<std::uint64_t>(load * 1000.0));
  inst.workload = generate_workload(wl, inst.active_nodes, rng);
  return inst;
}

// --- batch simulation workloads ---------------------------------------------

// One simulation, set up and ready to run. Heap-pinned: the Simulation holds
// references into the Instance.
struct Prepared {
  Instance inst;
  std::unique_ptr<Simulation> sim;
};

std::unique_ptr<Prepared> prepare(const Scenario& scenario, const SimCell& cell,
                                  std::uint64_t seed, Tracer* tracer, SetupTimes& times) {
  auto p = std::make_unique<Prepared>();
  const std::uint64_t t0 = now_ns();
  p->inst = make_instance(scenario, cell.run, cell.load, seed);
  std::unique_ptr<MobilityModel> model;
  if (p->inst.make_model) {
    model = p->inst.make_model();
    if (tracer != nullptr) model = std::make_unique<TimedModel>(std::move(model), *tracer);
  }
  const std::uint64_t t1 = now_ns();
  const ProtocolParams params = scenario.protocol_params();
  const Bytes buffer = scenario.config().buffer_capacity;
  const RouterFactory factory = tracer != nullptr
                                    ? make_timed_factory(cell.protocol, params, buffer, *tracer)
                                    : make_protocol_factory(cell.protocol, params, buffer);
  const SimConfig config = sim_config(scenario, p->inst);
  if (model != nullptr) {
    p->sim = std::make_unique<Simulation>(SimBounds{model->num_nodes(), model->duration()},
                                          p->inst.workload, factory, config);
    p->sim->add_event_source(make_mobility_source(std::move(model)));
  } else {
    p->sim = std::make_unique<Simulation>(p->inst.schedule, p->inst.workload, factory, config);
  }
  const std::uint64_t t2 = now_ns();
  times.instance_ns += t1 - t0;
  times.construct_ns += t2 - t1;
  return p;
}

SetupTimes setup_only_sim(const SimWorkload& w, std::uint64_t seed) {
  SetupTimes times;
  const std::uint64_t t0 = now_ns();
  const Scenario scenario(scenario_config(w.scenario));
  times.scenario_ns = now_ns() - t0;
  for (const SimCell& cell : w.cells) prepare(scenario, cell, seed, nullptr, times);
  return times;
}

Iteration run_sim_iteration(const SimWorkload& w, std::uint64_t seed, Tracer* tracer) {
  Iteration it;
  const std::uint64_t t0 = now_ns();
  const Scenario scenario(scenario_config(w.scenario));
  it.setup.scenario_ns = now_ns() - t0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const SimCell& cell = w.cells[i];
    const std::string where = "run " + std::to_string(i) + " (" + to_string(cell.protocol) +
                              ", day " + std::to_string(cell.run) + ", load " +
                              std::to_string(cell.load) + ")";
    std::unique_ptr<Prepared> p = prepare(scenario, cell, seed, tracer, it.setup);
    Simulation& sim = *p->sim;
    // Room for every contact up front (streamed runs: generous slack), so
    // growing the sample vector never lands inside a timed step.
    it.step_us.reserve(it.step_us.size() + p->inst.schedule.size() + 65536);

    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const std::uint64_t r0 = now_ns();
    std::uint64_t a = r0;
    int meetings = 0;
    while (sim.step()) {
      const std::uint64_t b = now_ns();
      // One event per step; the latency samples are the contact steps.
      if (sim.meetings_run() != meetings) {
        meetings = sim.meetings_run();
        it.step_us.push_back(static_cast<double>(b - a) / 1e3);
      }
      a = b;
    }
    const SimResult result = sim.finish();
    const std::uint64_t r1 = now_ns();
    g_counting.store(false, std::memory_order_relaxed);
    it.allocations += g_allocations.load(std::memory_order_relaxed);
    it.run_ns += r1 - r0;
    it.contacts += static_cast<std::uint64_t>(sim.meetings_run());
    if (tracer != nullptr) it.run_windows.emplace_back(r0, r1);

    ++it.attempted;  // the run itself
    it.fingerprint.add(result);
    it.counts.add(result);
    check_result(it, result, p->inst.workload, sim.meetings_run(), where);
  }
  return it;
}

// --- serve-powerlaw ----------------------------------------------------------

// One contact time of the feed: its contacts, and the packet its query asks
// about.
struct ServeTick {
  Time time = 0;
  std::size_t contacts_end = 0;  // contacts [previous tick's end, contacts_end)
  PacketId query = kNoPacket;    // kNoPacket: no packet created yet
};

struct ServeSetup {
  std::unique_ptr<Scenario> scenario;
  Instance inst;
  ServiceConfig config;
  std::vector<ServeTick> ticks;
  std::unique_ptr<ServiceEngine> engine;

  Time checkpoint_time(int checkpoint) const {
    return inst.duration * static_cast<double>(checkpoint) / kServeCheckpoints;
  }
};

std::unique_ptr<ServeSetup> setup_serve(std::uint64_t seed, SetupTimes& times) {
  auto s = std::make_unique<ServeSetup>();
  const std::uint64_t t0 = now_ns();
  s->scenario = std::make_unique<Scenario>(scenario_config(kServeScenario));
  const std::uint64_t t1 = now_ns();
  s->inst = make_instance(*s->scenario, 0, kServeLoad, seed);
  // Queries ask about packets that exist at the tick: rapid_perf draws one
  // uniformly among the packets created so far, with its own seeded stream.
  // Packet ids are in creation order (generate_workload sorts the pool).
  const std::vector<Meeting>& contacts = s->inst.schedule.meetings();
  const std::vector<Packet>& packets = s->inst.workload.all();
  Rng rng = Rng(seed).split("serve-queries");
  std::size_t created = 0;
  for (std::size_t i = 0; i < contacts.size();) {
    ServeTick tick;
    tick.time = contacts[i].time;
    while (i < contacts.size() && contacts[i].time == tick.time) ++i;
    tick.contacts_end = i;
    while (created < packets.size() && packets[created].created <= tick.time) ++created;
    if (created > 0)
      tick.query = static_cast<PacketId>(
          rng.uniform_int(0, static_cast<std::int64_t>(created) - 1));
    s->ticks.push_back(tick);
  }
  s->config.num_nodes = s->inst.num_nodes;
  s->config.protocol = ProtocolKind::kRapid;
  s->config.params = s->scenario->protocol_params();
  s->config.buffer_capacity = s->scenario->config().buffer_capacity;
  s->config.sim = sim_config(*s->scenario, s->inst);
  // Open-ended, like a live feed: the horizon follows advance_to. A preset
  // horizon (what `serve` sets from the trace header) is not safe with
  // interleaved ingest: once the event wheel has drained the ingest source,
  // contacts ingested later are only re-indexed when set_duration moves the
  // horizon, so advance_to below a preset horizon skips them.
  s->config.horizon = 0;
  const std::uint64_t t2 = now_ns();
  s->engine = std::make_unique<ServiceEngine>(s->config, s->inst.workload);
  const std::uint64_t t3 = now_ns();
  times.scenario_ns += t1 - t0;
  times.instance_ns += t2 - t1;
  times.construct_ns += t3 - t2;
  return s;
}

struct Answer {
  double delay = 0;
  double utility = 0;
  PacketStatus status;
};

std::uint32_t answer_crc(const Answer& a, std::uint32_t seed) {
  std::string bytes;
  append_bytes(bytes, a.delay);
  append_bytes(bytes, a.utility);
  append_bytes(bytes, a.status.replicas);
  append_bytes(bytes, static_cast<std::uint8_t>(a.status.delivered ? 1 : 0));
  append_bytes(bytes, a.status.delivery_time);
  return crc32(bytes, seed);
}

bool same_answer(const Answer& x, const Answer& y) { return answer_crc(x, 0) == answer_crc(y, 0); }

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// Per-process names, so two benchmark processes sharing a work directory
// never read each other's snapshots.
std::string snapshot_path(const std::string& work_dir, const std::string& run, int checkpoint) {
  return work_dir + "/serve-" + std::to_string(getpid()) + "-" + run + "-" +
         std::to_string(checkpoint) + ".bin";
}

// Drives `engine` from tick `first` to the horizon. Before each tick, every
// checkpoint due by its time is written (advance to the mark, snapshot), as
// `serve --snapshot-every` does; then the tick's contacts are ingested, the
// engine advances to the tick and its query is asked. The straight run times
// every call and records the answers, with allocation counting paused around
// checkpoints; the restored run checks its answers against the straight
// run's and times nothing.
void serve_ticks(ServiceEngine& engine, const ServeSetup& s, std::size_t first, int checkpoint,
                 const std::string& work_dir, bool straight, std::vector<Answer>& answers,
                 Iteration& it) {
  const std::vector<Meeting>& contacts = s.inst.schedule.meetings();
  ServiceTimes& st = it.service;
  const auto advance = [&](Time t) {
    const std::uint64_t a = now_ns();
    engine.advance_to(t);
    if (straight) st.advance_ns += now_ns() - a;
  };
  const auto checkpoints_until = [&](Time t) {
    for (; checkpoint <= kServeCheckpoints && s.checkpoint_time(checkpoint) <= t; ++checkpoint) {
      advance(s.checkpoint_time(checkpoint));
      const bool counting = g_counting.exchange(false, std::memory_order_relaxed);
      const std::uint64_t b = now_ns();
      const std::uint64_t bytes = engine.snapshot(
          snapshot_path(work_dir, straight ? "straight" : "restored", checkpoint));
      const std::uint64_t c = now_ns();
      g_counting.store(counting, std::memory_order_relaxed);
      it.attempted += 1;
      if (!straight) continue;
      st.snapshot_ns += c - b;
      st.snapshot_calls += 1;
      st.snapshot_s.push_back(static_cast<double>(c - b) / 1e9);
      st.snapshot_bytes = bytes;  // ends as the final checkpoint's size
    }
  };
  std::size_t next_contact = first == 0 ? 0 : s.ticks[first - 1].contacts_end;
  for (std::size_t k = first; k < s.ticks.size(); ++k) {
    const ServeTick& tick = s.ticks[k];
    checkpoints_until(tick.time);
    const std::uint64_t a = now_ns();
    for (; next_contact < tick.contacts_end; ++next_contact) engine.ingest(contacts[next_contact]);
    const std::uint64_t b = now_ns();
    engine.advance_to(tick.time);
    const std::uint64_t c = now_ns();
    it.attempted += 1;
    if (straight) {
      st.ingest_ns += b - a;
      st.advance_ns += c - b;
      it.step_us.push_back(static_cast<double>(c - a) / 1e3);
    }
    if (tick.query == kNoPacket) continue;
    const std::uint64_t q0 = now_ns();
    Answer ans;
    ans.delay = engine.query_delay(tick.query);
    ans.utility = engine.query_utility(tick.query);
    ans.status = engine.query_status(tick.query);
    const std::uint64_t q1 = now_ns();
    it.attempted += 1;
    if (straight) {
      st.query_ns += q1 - q0;
      st.query_calls += 1;
      st.query_us.push_back(static_cast<double>(q1 - q0) / 1e3);
      answers[k] = ans;
      it.fingerprint.answers_crc = answer_crc(ans, it.fingerprint.answers_crc);
    } else if (!same_answer(ans, answers[k])) {
      check(it, false,
            "restored run answered the query of tick " + std::to_string(k) + " (packet " +
                std::to_string(tick.query) + ") differently from the straight run");
    }
  }
  checkpoints_until(s.inst.duration);  // the last checkpoint is at the horizon
  advance(s.inst.duration);            // the final drain, with or without it
}

// The measured run is the straight replay less its checkpoints. With
// `checkpoints` it writes them, then restores from the half-way one and
// replays the rest: that is the restore ≡ straight check, and only the
// restore itself is timed. Without, it replays straight through.
Iteration run_serve_iteration(std::uint64_t seed, const std::string& work_dir,
                              bool checkpoints) {
  Iteration it;
  std::unique_ptr<ServeSetup> s = setup_serve(seed, it.setup);
  std::vector<Answer> answers(s->ticks.size());
  PacketPool restore_workload = s->inst.workload;
  it.step_us.reserve(s->ticks.size());
  it.service.query_us.reserve(s->ticks.size());
  it.service.snapshot_s.reserve(kServeCheckpoints);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const std::uint64_t r0 = now_ns();
  serve_ticks(*s->engine, *s, 0, checkpoints ? 1 : kServeCheckpoints + 1, work_dir, true,
              answers, it);
  const SimResult straight = s->engine->finish();
  const std::uint64_t r1 = now_ns();
  g_counting.store(false, std::memory_order_relaxed);
  it.allocations = g_allocations.load(std::memory_order_relaxed);
  it.run_ns = r1 - r0 - it.service.snapshot_ns;
  it.contacts = static_cast<std::uint64_t>(s->engine->sim().meetings_run());
  ++it.attempted;
  it.fingerprint.add(straight);
  check_result(it, straight, s->inst.workload, s->engine->sim().meetings_run(),
               "straight run");
  if (!checkpoints) return it;

  const Time restore_time = s->checkpoint_time(kServeRestoreCheckpoint);
  std::size_t first = 0;
  while (first < s->ticks.size() && s->ticks[first].time < restore_time) ++first;
  const std::uint64_t x0 = now_ns();
  std::unique_ptr<ServiceEngine> restored = ServiceEngine::restore(
      snapshot_path(work_dir, "straight", kServeRestoreCheckpoint), s->config,
      std::move(restore_workload));
  it.service.restore_ns = now_ns() - x0;
  it.attempted += 1;
  serve_ticks(*restored, *s, first, kServeRestoreCheckpoint + 1, work_dir, false, answers, it);
  const SimResult continued = restored->finish();
  check(it, digest(continued) == digest(straight),
        "restored run finished with a different SimResult than the straight run");
  for (int j = kServeRestoreCheckpoint + 1; j <= kServeCheckpoints; ++j) {
    const std::string a = read_file(snapshot_path(work_dir, "straight", j));
    const std::string b = read_file(snapshot_path(work_dir, "restored", j));
    check(it, !a.empty() && a == b,
          "restored run's checkpoint " + std::to_string(j) + " (" + std::to_string(b.size()) +
              " bytes) differs from the straight run's (" + std::to_string(a.size()) +
              " bytes)");
  }
  for (int j = 1; j <= kServeCheckpoints; ++j) {
    std::remove(snapshot_path(work_dir, "straight", j).c_str());
    std::remove(snapshot_path(work_dir, "restored", j).c_str());
  }
  return it;
}

SetupTimes setup_only_serve(std::uint64_t seed) {
  SetupTimes times;
  setup_serve(seed, times);
  return times;
}

// --- statistics and output ---------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

using Metrics = std::vector<std::pair<std::string, double>>;

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": " + num(metrics[i].second);
  }
  return out + "}";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in kilobytes on Linux
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// A step-latency quantile, taken per iteration and then the median over the
// iterations, so one iteration that ran while the host was busy moves it no
// more than it moves the wall time.
double step_quantile(const std::vector<Iteration>& its, double q) {
  std::vector<double> per_iteration;
  for (const Iteration& it : its) per_iteration.push_back(quantile(it.step_us, q));
  return median(per_iteration);
}

double median_run_s(const std::vector<Iteration>& its) {
  std::vector<double> run_s;
  for (const Iteration& it : its) run_s.push_back(secs(it.run_ns));
  return median(run_s);
}

// Every timing is the median over the measured iterations. Peak RSS is read
// after the first iteration: later ones only add allocator fragmentation,
// which would make it depend on how many iterations fit in --seconds.
Metrics end_to_end(const std::vector<Iteration>& its, const std::vector<double>& setup_s,
                   double rss_mb) {
  std::vector<double> contacts_per_s, allocations;
  for (const Iteration& it : its) {
    contacts_per_s.push_back(ratio(static_cast<double>(it.contacts), secs(it.run_ns)));
    allocations.push_back(static_cast<double>(it.allocations));
  }
  return {{"setup_s", median(setup_s)},
          {"run_wall_s", median_run_s(its)},
          {"contacts_per_s", median(contacts_per_s)},
          {"step_p50_us", step_quantile(its, 0.50)},
          {"peak_rss_mb", rss_mb},
          {"allocations", median(allocations)}};
}

struct Attribution {
  double wall_s = 0;
  double route_s = 0;
  double session_self_s = 0;
  double sim_self_s = 0;
  double mobility_s = 0;
  bool closes = true;
  std::string detail;
};

Attribution attribute(const Iteration& traced, const Tracer& tracer) {
  Attribution a;
  const auto& totals = tracer.totals();
  std::uint64_t spans_ns = 0;
  std::uint64_t route_in_spans_ns = 0;
  for (const ContactSpan& span : tracer.spans()) {
    spans_ns += span.end_ns - span.start_ns;
    for (int h = 0; h < kSpanRouteHooks; ++h) route_in_spans_ns += span.hook_ns[h];
  }
  std::uint64_t route_ns = totals[kGenerate].ns;
  for (int h = 0; h < kSpanRouteHooks; ++h) route_ns += totals[h].ns;
  a.wall_s = secs(traced.run_ns);
  a.route_s = secs(route_ns);
  a.mobility_s = secs(tracer.mobility_ns());
  a.session_self_s = secs(spans_ns) - secs(route_in_spans_ns);
  a.sim_self_s = a.wall_s - secs(spans_ns) - a.mobility_s - secs(totals[kGenerate].ns);
  const double sum = a.route_s + a.mobility_s + a.session_self_s + a.sim_self_s;
  a.closes = tracer.unspanned() == 0 && a.session_self_s >= 0 && a.sim_self_s >= 0 &&
             std::fabs(sum - a.wall_s) <= 0.02 * a.wall_s;
  a.detail = "route " + num(a.route_s) + " + mobility " + num(a.mobility_s) +
             " + session_self " + num(a.session_self_s) + " + sim_self " +
             num(a.sim_self_s) + " = " + num(sum) + " s vs run wall " + num(a.wall_s) +
             " s; hooks outside a contact " + std::to_string(tracer.unspanned());
  return a;
}

Metrics per_layer(const Iteration& traced, const Tracer& tracer,
                  const std::vector<SetupTimes>& setups, const std::vector<Iteration>& untraced,
                  const Attribution& attr) {
  const double untraced_wall_s = median_run_s(untraced);
  std::vector<double> scenario_s, instance_s, construct_s;
  for (const SetupTimes& t : setups) {
    scenario_s.push_back(secs(t.scenario_ns));
    instance_s.push_back(secs(t.instance_ns));
    construct_s.push_back(secs(t.construct_ns));
  }
  const auto& totals = tracer.totals();
  std::vector<double> contact_us;
  for (const ContactSpan& span : tracer.spans())
    contact_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  const RegistryCounts& c = traced.counts;
  const ServiceTimes& st = traced.service;
  const auto calls = [&](int h) { return static_cast<double>(totals[h].calls); };
  const auto busy = [&](int h) { return secs(totals[h].ns); };
  return {
      {"runner.scenario_s", median(scenario_s)},
      {"runner.instance_s", median(instance_s)},
      {"sim.construct_s", median(construct_s)},
      {"mobility.pops", static_cast<double>(tracer.mobility_pops())},
      {"mobility.busy_s", attr.mobility_s},
      {"mobility.ns_per_pop", ratio(static_cast<double>(tracer.mobility_ns()),
                                    static_cast<double>(tracer.mobility_pops()))},
      {"sim.self_s", attr.sim_self_s},
      {"dtn.session_self_s", attr.session_self_s},
      {"dtn.contact_us_p50", quantile(contact_us, 0.50)},
      {"dtn.contact_us_p99", quantile(contact_us, 0.99)},
      {"dtn.receive.calls", calls(kReceive)},
      {"dtn.receive.busy_s", busy(kReceive)},
      {"dtn.evict.calls", calls(kEvict)},
      {"dtn.evict.busy_s", busy(kEvict)},
      {"dtn.offer_accept_ratio",
       ratio(static_cast<double>(tracer.accepted()), static_cast<double>(tracer.offers()))},
      {"dtn.transfers", static_cast<double>(c.transfers)},
      {"dtn.drops", static_cast<double>(c.drops)},
      {"route.begin.calls", calls(kBegin)},
      {"route.begin.busy_s", busy(kBegin)},
      {"route.plan.calls", calls(kPlan)},
      {"route.plan.busy_s", busy(kPlan)},
      {"route.next.calls", calls(kNext)},
      {"route.next.busy_s", busy(kNext)},
      {"route.generate.busy_s", busy(kGenerate)},
      {"route.observe.busy_s", busy(kObserve)},
      {"route.success.busy_s", busy(kSuccess)},
      {"route.failed.busy_s", busy(kFailed)},
      {"route.aux.busy_s", busy(kAux)},
      {"route.end.busy_s", busy(kEnd)},
      {"route.busy_share", ratio(attr.route_s, attr.wall_s)},
      {"core.delay_hit_ratio",
       ratio(static_cast<double>(c.delay_hits),
             static_cast<double>(c.delay_hits + c.delay_recomputes))},
      {"core.rate_hit_ratio", ratio(static_cast<double>(c.rate_hits),
                                    static_cast<double>(c.rate_hits + c.rate_recomputes))},
      {"core.delay_recomputes", static_cast<double>(c.delay_recomputes)},
      {"core.tracked_packets", static_cast<double>(c.tracked_packets)},
      {"service.ingest.busy_s", secs(st.ingest_ns)},
      {"service.advance.busy_s", secs(st.advance_ns)},
      {"service.query.calls", static_cast<double>(st.query_calls)},
      {"service.query.busy_s", secs(st.query_ns)},
      {"service.query_p50_us", quantile(st.query_us, 0.50)},
      {"service.query_p99_us", quantile(st.query_us, 0.99)},
      {"service.snapshot.calls", static_cast<double>(st.snapshot_calls)},
      {"service.snapshot.busy_s", secs(st.snapshot_ns)},
      {"service.snapshot_s", median(st.snapshot_s)},
      {"service.restore_s", secs(st.restore_ns)},
      {"service.snapshot_mb", static_cast<double>(st.snapshot_bytes) / (1024.0 * 1024.0)},
      {"bench.step_p99_us", step_quantile(untraced, 0.99)},
      {"bench.traced_wall_s", secs(traced.run_ns)},
      {"bench.trace_overhead_pct",
       100.0 * ratio(secs(traced.run_ns) - untraced_wall_s, untraced_wall_s)},
  };
}

// Chrome trace_event JSON: one "run" span per simulation, one "contact" span
// per contact with its parent run's index and its per-hook child totals in
// args.
bool write_trace(const std::string& path, const Iteration& traced, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) return false;
  const auto& runs = traced.run_windows;
  const std::uint64_t origin = runs.empty() ? 0 : runs[0].first;
  const auto us = [origin](std::uint64_t ns) { return num(static_cast<double>(ns - origin) / 1e3); };
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << (first ? "" : ",\n") << "{\"name\": \"run\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        << "\"ts\": " << us(runs[i].first)
        << ", \"dur\": " << num(static_cast<double>(runs[i].second - runs[i].first) / 1e3)
        << ", \"args\": {\"run\": " << i << "}}";
    first = false;
  }
  std::size_t parent = 0;  // spans and runs are both in time order
  for (const ContactSpan& span : tracer.spans()) {
    while (parent + 1 < runs.size() && span.start_ns > runs[parent].second) ++parent;
    out << (first ? "" : ",\n") << "{\"name\": \"contact\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << us(span.start_ns)
        << ", \"dur\": " << num(static_cast<double>(span.end_ns - span.start_ns) / 1e3)
        << ", \"args\": {\"run\": " << parent << ", \"a\": " << span.a
        << ", \"b\": " << span.b;
    for (int h = 0; h < kHookCount; ++h)
      if (span.hook_ns[h] > 0)
        out << ", \"" << hook_name(h)
            << "_us\": " << num(static_cast<double>(span.hook_ns[h]) / 1e3);
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

struct Options {
  std::string workload;
  std::uint64_t seed = ScenarioConfig{}.seed;
  double seconds = 0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: rapid_perf --workload NAME [--seed S] [--seconds T] [--trace] "
               "[--work-dir DIR] [--trace-out PATH]\n"
               "workloads: powerlaw-sat powerlaw-light powerlaw-epidemic trace-sweep "
               "serve-powerlaw\n");
  return 2;
}

int run(const Options& opt) {
  const auto sim_it = sim_workloads().find(opt.workload);
  const bool serve = opt.workload == "serve-powerlaw";
  if (!serve && sim_it == sim_workloads().end()) return usage();

  // Each set-up and iteration starts from a trimmed heap, so it faults its
  // memory in like a fresh process does. Otherwise whether glibc happened to
  // keep the previous iteration's pages decides whether set-up page-faults,
  // which makes set-up times bimodal on a VM.
  const auto setup_once = [&]() -> SetupTimes {
    malloc_trim(0);
    return serve ? setup_only_serve(opt.seed) : setup_only_sim(sim_it->second, opt.seed);
  };
  // serve writes its checkpoints and checks restore ≡ straight in the first
  // iteration and the traced one; the others replay straight through, so
  // the fsynced checkpoint writes do not crowd the measured replays out of
  // --seconds.
  std::vector<Iteration> its;
  const auto iterate = [&](Tracer* tracer) -> Iteration {
    malloc_trim(0);
    return serve ? run_serve_iteration(opt.seed, opt.work_dir, its.empty() || tracer != nullptr)
                 : run_sim_iteration(sim_it->second, opt.seed, tracer);
  };

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  const auto absorb = [&](const Iteration& it) {
    attempted += it.attempted;
    failures.insert(failures.end(), it.failures.begin(), it.failures.end());
  };

  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(std::max(0.0, opt.seconds) * 1e9);
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupOnlyReps; ++i) {
    setups.push_back(setup_once());
    setup_s.push_back(secs(setups.back().total()));
  }
  std::vector<double> iter_s;
  double rss_mb = 0;
  const auto measure = [&]() {
    const std::uint64_t i0 = now_ns();
    its.push_back(iterate(nullptr));
    iter_s.push_back(secs(now_ns() - i0));
    if (its.size() == 1) rss_mb = peak_rss_mb();
    setups.push_back(its.back().setup);
    setup_s.push_back(secs(its.back().setup.total()));
    absorb(its.back());
    std::fprintf(stderr,
                 "rapid_perf: %s iteration %zu: setup %.4f s, run %.4f s, %llu allocations\n",
                 opt.workload.c_str(), its.size() - 1, setup_s.back(), secs(its.back().run_ns),
                 static_cast<unsigned long long>(its.back().allocations));
    ++attempted;
    if (!(its.back().fingerprint == its.front().fingerprint))
      failures.push_back("iteration " + std::to_string(its.size() - 1) +
                         " did not reproduce iteration 0 (run-to-run identity)");
  };
  do {
    measure();
  } while (static_cast<int>(its.size()) < kMaxIterations &&
           secs(now_ns() - start) + median(iter_s) <= secs(budget));

  Metrics layers;
  if (opt.trace) {
    Tracer tracer;
    Iteration traced = iterate(&tracer);  // serve's routers stay untimed
    absorb(traced);
    ++attempted;
    if (!(traced.fingerprint == its.front().fingerprint))
      failures.push_back("traced run did not reproduce the untraced SimResult");
    // One more untraced iteration, so the overhead compares the traced run
    // against untraced runs on both sides of it.
    measure();
    const Attribution attr = serve ? Attribution{} : attribute(traced, tracer);
    if (!serve) {
      ++attempted;
      if (!attr.closes) failures.push_back("attribution does not close: " + attr.detail);
    }
    layers = per_layer(traced, tracer, setups, its, attr);
    if (!opt.trace_out.empty() && !write_trace(opt.trace_out, traced, tracer))
      failures.push_back("cannot write trace file " + opt.trace_out);
  }

  const Iteration& first = its.front();
  const Fingerprint& fp = first.fingerprint;
  std::string record = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                       std::to_string(opt.seed) + ", \"iterations\": " +
                       std::to_string(its.size()) + ", \"attempted\": " +
                       std::to_string(attempted) + ", \"failed\": " +
                       std::to_string(failures.size()) + ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    record += (i > 0 ? ", \"" : "\"") + json_escape(failures[i]) + "\"";
  record += "], \"check\": {\"packets\": " + std::to_string(fp.packets) +
            ", \"meetings\": " + std::to_string(fp.meetings) +
            ", \"delivered\": " + std::to_string(fp.delivered) +
            ", \"drops\": " + std::to_string(fp.drops) + ", \"avg_delay_crc\": \"" +
            hex(fp.avg_delay_crc) + "\", \"delivery_crc\": \"" + hex(fp.delivery_crc) +
            "\", \"result_crc\": \"" + hex(fp.result_crc) + "\"";
  if (serve) record += ", \"answers_crc\": \"" + hex(fp.answers_crc) + "\"";
  record += "}, \"metrics\": " + metrics_json(end_to_end(its, setup_s, rss_mb));
  if (opt.trace) record += ", \"layers\": " + metrics_json(layers);
  record += "}\n";
  std::fputs(record.c_str(), stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  perf::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return perf::usage();
    }
  }
  if (opt.workload.empty()) return perf::usage();
  try {
    return perf::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapid_perf: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
