// Little-endian binary serialization for snapshot files.
//
// BinWriter/BinReader are thin framing helpers over iostreams: fixed-width
// integers are written byte-by-byte (so snapshots are architecture
// independent), doubles travel as their IEEE-754 bit pattern (restore is
// bit-exact — the snapshot contract demands it), and every compound section
// opens with a four-character tag that the reader checks, so a truncated or
// misaligned file fails loudly at the section boundary instead of
// deserializing garbage.
//
// Shared objects (meeting-matrix row versions gossiped between routers, the
// global control channel) are serialized once through the interning table:
// the first save of a pointer assigns it a dense id (in save order, so the
// byte stream is a pure function of the saved state) and writes the body;
// later saves write only the id. The reader mirrors the table, rebuilding
// the exact sharing graph — restored routers share row versions the same way
// the uninterrupted run did.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace rapid {

class BinWriter {
 public:
  explicit BinWriter(std::ostream& os) : os_(&os) {}

  void u8(std::uint8_t v) { os_->put(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os_->write(b, 4);
  }
  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os_->write(b, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    os_->write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  // Section marker, e.g. tag("ROUT"); must be exactly four characters.
  void tag(const char (&t)[5]) { os_->write(t, 4); }

  // Registers `p` in the interning table. First occurrence: assigns the next
  // dense id, writes it, returns true — the caller must write the object
  // body. Later occurrences: writes the existing id, returns false.
  bool intern(const void* p, std::uint64_t& id) {
    auto it = interned_.find(p);
    if (it != interned_.end()) {
      id = it->second;
      u64(id);
      return false;
    }
    id = interned_.size();
    interned_.emplace(p, id);
    u64(id);
    return true;
  }

  bool ok() const { return static_cast<bool>(*os_); }

 private:
  std::ostream* os_;
  std::unordered_map<const void*, std::uint64_t> interned_;
};

class BinReader {
 public:
  explicit BinReader(std::istream& is) : is_(&is) {}

  std::uint8_t u8() {
    const int c = is_->get();
    if (c == std::char_traits<char>::eof()) fail("unexpected end of snapshot");
    return static_cast<std::uint8_t>(c);
  }
  std::uint32_t u32() {
    char b[4];
    read(b, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    char b[8];
    read(b, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > (1ull << 32)) fail("implausible string length");
    std::string s(static_cast<std::size_t>(n), '\0');
    if (n > 0) read(s.data(), static_cast<std::streamsize>(n));
    return s;
  }
  void expect_tag(const char (&t)[5]) {
    char b[4];
    read(b, 4);
    if (std::memcmp(b, t, 4) != 0)
      fail(std::string("bad section tag, expected '") + t + "'");
  }

  // A record count, refused above `limit` (a node count, say).
  std::uint64_t count_at_most(std::uint64_t limit, const char* what) {
    const std::uint64_t n = u64();
    if (n > limit) fail(std::string(what) + " count above " + std::to_string(limit));
    return n;
  }
  // The next u32 id of a list written strictly ascending (previous = -1
  // before the first); refused unless previous < id < limit.
  std::int32_t ascending_id(std::int32_t previous, std::int32_t limit, const char* what) {
    const std::uint32_t id = u32();
    if (id >= static_cast<std::uint32_t>(limit) || static_cast<std::int32_t>(id) <= previous)
      fail(std::string(what) + " ids must ascend below " + std::to_string(limit));
    return static_cast<std::int32_t>(id);
  }

  // Reads an intern id. Returns the previously registered object for that id
  // (possibly from another router's section), or null when the id is fresh —
  // the caller must then read the body and register_interned() the result.
  std::uint64_t intern_id() { return u64(); }
  std::shared_ptr<void> interned(std::uint64_t id) const {
    return id < interned_.size() ? interned_[id] : nullptr;
  }
  void register_interned(std::uint64_t id, std::shared_ptr<void> obj) {
    if (id != interned_.size()) fail("intern ids out of order in snapshot");
    interned_.push_back(std::move(obj));
  }

  [[noreturn]] static void fail(const std::string& why) {
    throw std::runtime_error("snapshot: " + why);
  }

 private:
  void read(char* out, std::streamsize n) {
    is_->read(out, n);
    if (is_->gcount() != n) fail("unexpected end of snapshot");
  }

  std::istream* is_;
  std::vector<std::shared_ptr<void>> interned_;
};

}  // namespace rapid
