#include "service/service_engine.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/rapid_router.h"
#include "obs/obs.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/crc32.h"

namespace rapid {

namespace {

// v2: the file ends in an 8-byte integrity footer ("CRC2" + CRC32 of the
// body, little-endian) and is published with an atomic write-temp + fsync +
// rename, so a process killed mid-snapshot can never leave a torn file that
// parses. The loader validates the footer before reading a single field.
// v3: RAPID's sections store met peers and learnt rows as sparse records,
// and no memo key (docs/SERVICE.md).
constexpr std::uint32_t kSnapshotVersion = 3;
constexpr std::size_t kFooterSize = 8;

[[noreturn]] void fail(const std::string& why) { throw std::runtime_error("service: " + why); }

}  // namespace

const SimEvent* ServiceEngine::IngestSource::peek() {
  if (queue_.empty()) return nullptr;
  event_.kind = SimEvent::Kind::kMeeting;
  event_.time = queue_.front().time;
  event_.packet = nullptr;
  event_.meeting = queue_.front();
  return &event_;
}

ServiceEngine::ServiceEngine(const ServiceConfig& config, PacketPool workload)
    : config_(config), workload_(std::move(workload)) {
  if (config_.num_nodes < 2) fail("need at least 2 nodes");
  const RouterFactory factory =
      make_protocol_factory(config_.protocol, config_.params, config_.buffer_capacity);
  sim_ = std::make_unique<Simulation>(SimBounds{config_.num_nodes, config_.horizon},
                                      workload_, factory, config_.sim);
  auto source = std::make_unique<IngestSource>();
  ingest_ = source.get();
  sim_->add_event_source(std::move(source));
}

void ServiceEngine::ingest(const ContactEvent& contact) {
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kIngest);
  ingest_impl(contact);
}

void ServiceEngine::ingest_impl(const ContactEvent& contact) {
  if (contact.a < 0 || contact.b < 0 || contact.a >= config_.num_nodes ||
      contact.b >= config_.num_nodes)
    fail("ingested contact node out of range");
  if (contact.a == contact.b) fail("ingested self contact");
  if (contact.capacity < 0) fail("ingested negative capacity");
  if (contact.time < advanced_to_) {
    std::ostringstream why;
    why << "contact at " << contact.time << " precedes the clock (" << advanced_to_
        << "); the event core cannot rewind";
    fail(why.str());
  }
  if (contact.time < last_ingested_) {
    std::ostringstream why;
    why << "non-monotonic ingest: contact at " << contact.time << " after "
        << last_ingested_;
    fail(why.str());
  }
  ingest_->push(contact);
  last_ingested_ = contact.time;
  RAPID_OBS_INC(kServiceContactsIngested);
}

void ServiceEngine::ingest_file_tail(const std::string& path) {
  if (tail_) fail("already tailing " + tail_->path());
  tail_.emplace(path);
}

std::size_t ServiceEngine::poll_tail(bool file_complete) {
  if (!tail_) fail("poll_tail without ingest_file_tail");
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kIngest);
  tail_batch_.clear();
  tail_->poll(tail_batch_, file_complete);
  if (tail_->fleet() > 0 && tail_->fleet() != config_.num_nodes) {
    std::ostringstream why;
    why << "tailed trace declares fleet " << tail_->fleet() << " but the engine runs "
        << config_.num_nodes << " nodes";
    fail(why.str());
  }
  for (const Meeting& m : tail_batch_) ingest_impl(m);
  return tail_batch_.size();
}

void ServiceEngine::advance_to(Time t) {
  if (t < advanced_to_) {
    std::ostringstream why;
    why << "advance_to(" << t << ") would rewind the clock from " << advanced_to_;
    fail(why.str());
  }
  // The horizon follows the clock: an open-ended run has no day end, so no
  // ingested contact may be skipped as "past the duration".
  if (t > sim_->duration()) sim_->set_duration(t);
  sim_->run_until(t);
  advanced_to_ = t;
}

const RapidRouter* ServiceEngine::rapid_viewer(const Packet& p) const {
  for (NodeId node = 0; node < config_.num_nodes; ++node) {
    Router& router = sim_->router(node);
    if (!router.buffer().contains(p.id)) continue;
    if (const auto* rapid = dynamic_cast<const RapidRouter*>(&router)) return rapid;
  }
  return dynamic_cast<const RapidRouter*>(&sim_->router(p.src));
}

double ServiceEngine::query_delay(PacketId id) const {
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kQuery);
  RAPID_OBS_INC(kServiceQueries);
  const Packet& p = workload_.get(id);
  const RapidRouter* viewer = rapid_viewer(p);
  if (viewer == nullptr) fail("delay queries need a RAPID protocol");
  return viewer->expected_total_delay_of(p, advanced_to_);
}

double ServiceEngine::query_utility(PacketId id) const {
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kQuery);
  RAPID_OBS_INC(kServiceQueries);
  const Packet& p = workload_.get(id);
  const RapidRouter* viewer = rapid_viewer(p);
  if (viewer == nullptr) fail("utility queries need a RAPID protocol");
  return viewer->utility_now(p, advanced_to_);
}

PacketStatus ServiceEngine::query_status(PacketId id) const {
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kQuery);
  RAPID_OBS_INC(kServiceQueries);
  workload_.get(id);  // range check
  PacketStatus status;
  for (NodeId node = 0; node < config_.num_nodes; ++node)
    if (sim_->router(node).buffer().contains(id)) ++status.replicas;
  status.delivered = sim_->metrics().is_delivered(id);
  if (status.delivered) status.delivery_time = sim_->metrics().delivery_time(id);
  return status;
}

FleetStats ServiceEngine::stats() const {
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kQuery);
  RAPID_OBS_INC(kServiceQueries);
  FleetStats out;
  out.now = advanced_to_;
  out.meetings = sim_->meetings_run();
  for (NodeId node = 0; node < config_.num_nodes; ++node) {
    const Buffer& buffer = sim_->router(node).buffer();
    buffer.for_each([&out](PacketId, Bytes) { ++out.buffered_copies; });
    out.buffered_bytes += buffer.used();
  }
  for (const Packet& p : workload_.all())
    if (sim_->metrics().is_delivered(p.id)) ++out.delivered;
  return out;
}

std::uint64_t ServiceEngine::config_fingerprint() const {
  // FNV-1a over every input that must match between save and restore: the
  // engine config and the full workload. A mismatched fingerprint means the
  // restored run would diverge silently, so restore() refuses it instead.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_f = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(config_.num_nodes));
  mix(static_cast<std::uint64_t>(config_.protocol));
  mix(static_cast<std::uint64_t>(config_.buffer_capacity));
  mix(static_cast<std::uint64_t>(config_.params.metric));
  mix_f(config_.params.rapid_prior_meeting_time);
  mix(static_cast<std::uint64_t>(config_.params.rapid_prior_opportunity));
  mix_f(config_.params.rapid_delay_cap);
  mix(config_.params.rapid_incremental_cache ? 1 : 0);
  mix_f(config_.params.prophet_aging_unit);
  mix(static_cast<std::uint64_t>(config_.params.spray_copies));
  // Link policy and fault injection change what the restored run would do
  // with the same contacts, so they are part of the config identity too.
  const ContactConfig& contact = config_.sim.contact;
  mix_f(contact.metadata_cap_fraction);
  mix(1);  // metadata is always charged; the constant keeps saved fingerprints valid
  mix_f(contact.link.interruption_rate);
  mix_f(contact.link.min_completion);
  mix_f(contact.link.max_completion);
  mix_f(contact.link.forward_fraction);
  mix(contact.link.seed);
  mix_f(contact.fault.loss_rate);
  mix_f(contact.fault.loss_spread);
  mix_f(contact.fault.meta_degrade_rate);
  mix_f(contact.fault.meta_survive_fraction);
  mix(contact.fault.seed);
  mix_f(config_.sim.node_faults.mean_uptime);
  mix_f(config_.sim.node_faults.mean_downtime);
  mix(config_.sim.node_faults.drop_buffers ? 1 : 0);
  mix(config_.sim.node_faults.seed);
  mix_f(config_.horizon);
  mix(workload_.size());
  for (const Packet& p : workload_.all()) {
    mix(static_cast<std::uint64_t>(p.src));
    mix(static_cast<std::uint64_t>(p.dst));
    mix(static_cast<std::uint64_t>(p.size));
    mix_f(p.created);
    mix_f(p.deadline);
  }
  return h;
}

void ServiceEngine::save(BinWriter& out) {
  out.tag("RSNP");
  out.u32(kSnapshotVersion);
  out.u64(config_fingerprint());
  out.f64(advanced_to_);
  out.f64(last_ingested_);
  sim_->save_state(out);
  out.u64(ingest_->queue_.size());
  for (const Meeting& m : ingest_->queue_) {
    out.i64(m.a);
    out.i64(m.b);
    out.f64(m.time);
    out.i64(m.capacity);
  }
  out.u8(tail_ ? 1 : 0);
  if (tail_) tail_->save(out);
}

void ServiceEngine::load(BinReader& in, const std::string& tail_path) {
  in.expect_tag("RSNP");
  const std::uint32_t version = in.u32();
  if (version != kSnapshotVersion) {
    std::ostringstream why;
    why << "snapshot version " << version << " (this build reads " << kSnapshotVersion << ")";
    fail(why.str());
  }
  if (in.u64() != config_fingerprint())
    fail("snapshot was taken under a different config or workload");
  advanced_to_ = in.f64();
  last_ingested_ = in.f64();
  sim_->load_state(in);
  // Deterministic sources (the workload) are reconstructed, not serialized:
  // drop everything the saved run had already consumed. Must happen before
  // the pending ingest queue is refilled below — pending contacts at exactly
  // the snapshot clock must survive.
  sim_->set_duration(std::max(config_.horizon, advanced_to_));
  sim_->fast_forward_sources(advanced_to_);
  const std::uint64_t pending = in.u64();
  for (std::uint64_t i = 0; i < pending; ++i) {
    Meeting m;
    m.a = static_cast<NodeId>(in.i64());
    m.b = static_cast<NodeId>(in.i64());
    m.time = in.f64();
    m.capacity = in.i64();
    ingest_->queue_.push_back(m);
  }
  const bool has_tail = in.u8() != 0;
  if (has_tail) {
    if (tail_path.empty())
      fail("snapshot carries a tail cursor; pass the tailed trace path to restore()");
    tail_.emplace(tail_path);
    tail_->load(in);
  } else if (!tail_path.empty()) {
    fail("snapshot has no tail cursor for '" + tail_path + "'");
  }
}

std::uint64_t ServiceEngine::snapshot(const std::string& path) {
  const obs::ContextScope scope(&sim_->obs());
  RAPID_OBS_PHASE(kSnapshot);
  // Serialize the body in memory, foot it with its CRC32, and publish the
  // whole file atomically: a kill -9 at any instant leaves either the
  // previous snapshot or this one, never a torn file.
  std::ostringstream body_os(std::ios::binary);
  BinWriter out(body_os);
  save(out);
  if (!out.ok()) fail("serializing snapshot failed: " + path);
  std::string blob = body_os.str();
  const std::uint32_t crc = crc32(blob);
  const char footer[kFooterSize] = {
      'C', 'R', 'C', '2',
      static_cast<char>(crc & 0xff), static_cast<char>((crc >> 8) & 0xff),
      static_cast<char>((crc >> 16) & 0xff), static_cast<char>((crc >> 24) & 0xff)};
  blob.append(footer, kFooterSize);
  write_file_atomic(path, blob);
  const auto bytes = static_cast<std::uint64_t>(blob.size());
  RAPID_OBS_INC(kServiceSnapshots);
  RAPID_OBS_ADD(kServiceSnapshotBytes, bytes);
  return bytes;
}

std::unique_ptr<ServiceEngine> ServiceEngine::restore(const std::string& snapshot_path,
                                                      const ServiceConfig& config,
                                                      PacketPool workload,
                                                      const std::string& tail_path) {
  std::ifstream f(snapshot_path, std::ios::binary);
  if (!f) fail("cannot open snapshot file: " + snapshot_path);
  std::ostringstream slurp;
  slurp << f.rdbuf();
  if (!f) fail("reading snapshot failed: " + snapshot_path);
  const std::string blob = slurp.str();
  // Integrity gate: validate the CRC32 footer over the whole body BEFORE
  // parsing any field, so a truncated or bit-flipped snapshot is rejected
  // with a clean error instead of deserializing garbage.
  if (blob.size() < kFooterSize)
    fail("snapshot too short to carry its integrity footer: " + snapshot_path);
  const char* foot = blob.data() + blob.size() - kFooterSize;
  if (std::memcmp(foot, "CRC2", 4) != 0)
    fail("snapshot integrity footer missing (pre-v2 or corrupt file): " +
         snapshot_path);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(static_cast<unsigned char>(foot[4 + i]))
              << (8 * i);
  const std::string_view body(blob.data(), blob.size() - kFooterSize);
  if (crc32(body) != stored)
    fail("snapshot CRC mismatch (torn or corrupted file): " + snapshot_path);
  std::istringstream body_is(std::string(body), std::ios::binary);
  BinReader in(body_is);
  auto engine = std::make_unique<ServiceEngine>(config, std::move(workload));
  const obs::ContextScope scope(&engine->sim_->obs());
  RAPID_OBS_PHASE(kSnapshot);
  engine->load(in, tail_path);
  return engine;
}

}  // namespace rapid
