// Loader invariants of RAPID's snapshot sections (MMTX inside RAPD).
//
// A snapshot body is CRC-checked before it is parsed, so these cases are
// bodies a buggy writer could produce with a valid footer: each breaks one
// ordering or range invariant of the sparse format, and the loader must
// refuse it with std::runtime_error (never a crash, an out_of_range from an
// index lookup, or a quietly wrong router).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rapid_router.h"
#include "util/binio.h"

namespace rapid {
namespace {

constexpr int kNodes = 4;
constexpr NodeId kOwner = 0;

// A RAPID router's snapshot section for node 0 of 4, written field by field.
// Counts are written as given, so a case can claim more records than it
// carries (the loader must refuse the count before reading them).
struct Body {
  std::uint64_t peer_count = 1;
  std::vector<std::uint32_t> peers = {1};  // MMTX (peer, count, last met) records
  std::int64_t meetings = 1;               // every peer record's meeting count
  std::uint64_t row_count = 2;
  std::vector<std::uint32_t> rows = {0, 1};  // learnt row nodes, each its own version
  std::uint64_t entry_count = 2;
  std::vector<std::uint32_t> cols = {1, 2};  // columns of every row version
  std::uint64_t link_count = 1;
  std::vector<std::uint32_t> links = {1};  // RAPD (peer, last sync, opportunity) records
};

std::string write_body(const Body& body) {
  std::ostringstream os;
  BinWriter out(os);
  // An empty base-router section: RNG state, no buffer, receipts or acks.
  out.tag("ROUT");
  for (std::uint64_t word : {1, 2, 3, 4}) out.u64(word);
  for (int empty = 0; empty < 4; ++empty) out.u64(0);  // buffer, receipts, acks, drops

  out.tag("RAPD");
  out.tag("MMTX");
  out.u64(body.peer_count);
  for (std::uint32_t peer : body.peers) {
    out.u32(peer);
    out.i64(body.meetings);
    out.f64(10.0);
  }
  out.u64(body.row_count);
  std::uint64_t id = 0;
  for (std::uint32_t node : body.rows) {
    out.u32(node);
    out.u64(id++);
    out.f64(10.0);  // stamp
    out.u64(body.entry_count);
    for (std::uint32_t col : body.cols) {
      out.u32(col);
      out.f64(5.0);
    }
  }
  out.tag("META");
  out.u64(0);
  out.f64(0.0);  // all-peers opportunity average and its count
  out.u64(0);
  out.u64(body.link_count);
  for (std::uint32_t peer : body.links) {
    out.u32(peer);
    out.f64(10.0);
    out.f64(32768.0);
    out.u64(1);
  }
  out.u8(0);  // in-band control channel
  return os.str();
}

void load_body(const std::string& bytes) {
  SimContext ctx;
  ctx.num_nodes = kNodes;
  RapidRouter router(kOwner, -1, &ctx, RapidConfig{});
  std::istringstream is(bytes);
  BinReader in(is);
  router.load_state(in);
}

struct BadBody {
  const char* name;
  std::function<void(Body&)> corrupt;
};

TEST(SnapshotLoader, RejectsBodiesThatBreakTheSparseInvariants) {
  ASSERT_NO_THROW(load_body(write_body(Body{}))) << "the unmodified body must load";

  const std::vector<BadBody> cases = {
      {"row columns unsorted", [](Body& b) { b.cols = {2, 1}; }},
      {"row column duplicated", [](Body& b) { b.cols = {2, 2}; }},
      {"row column out of range", [](Body& b) { b.cols = {1, kNodes}; }},
      {"row entry count above the fleet", [](Body& b) { b.entry_count = kNodes + 1; }},
      {"row nodes unsorted", [](Body& b) { b.rows = {1, 0}; }},
      {"row node duplicated", [](Body& b) { b.rows = {1, 1}; }},
      {"row node out of range", [](Body& b) { b.rows = {0, kNodes}; }},
      {"row count above the fleet", [](Body& b) { b.row_count = kNodes + 1; }},
      {"matrix peers unsorted", [](Body& b) { b.peer_count = 2; b.peers = {2, 1}; }},
      {"matrix peer duplicated", [](Body& b) { b.peer_count = 2; b.peers = {1, 1}; }},
      {"matrix peer is the owner", [](Body& b) { b.peers = {kOwner}; }},
      {"matrix peer out of range", [](Body& b) { b.peers = {kNodes}; }},
      {"matrix peer count above the fleet", [](Body& b) { b.peer_count = kNodes + 1; }},
      {"matrix peer never met", [](Body& b) { b.meetings = 0; }},
      {"matrix peer meeting count overflows int", [](Body& b) { b.meetings = 1ll << 31; }},
      {"router links unsorted", [](Body& b) { b.link_count = 2; b.links = {2, 1}; }},
      {"router link duplicated", [](Body& b) { b.link_count = 2; b.links = {1, 1}; }},
      {"router link is the owner", [](Body& b) { b.links = {kOwner}; }},
      {"router link out of range", [](Body& b) { b.links = {kNodes}; }},
      {"router link count above the fleet", [](Body& b) { b.link_count = kNodes + 1; }},
  };
  for (const BadBody& bad : cases) {
    Body body;
    bad.corrupt(body);
    EXPECT_THROW(load_body(write_body(body)), std::runtime_error) << bad.name;
  }
}

}  // namespace
}  // namespace rapid
