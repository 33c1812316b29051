#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace rapid {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is incomplete on some toolchains; strtod is fine here.
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  std::int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!starts_with(arg, "--")) continue;
    arg.remove_prefix(2);
    std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      // "--key value" form: consume the next token unless it is a flag.
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        kv_.emplace_back(std::string(arg), std::string(argv[i + 1]));
        ++i;
      } else {
        kv_.emplace_back(std::string(arg), "true");
      }
    } else {
      kv_.emplace_back(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
    }
  }
}

bool Options::has(std::string_view key) const {
  for (const auto& [k, v] : kv_)
    if (k == key) return true;
  return false;
}

namespace {

[[noreturn]] void throw_not_a_number(std::string_view key, const std::string& value) {
  throw std::invalid_argument("--" + std::string(key) + ": not a number: '" + value + "'");
}

}  // namespace

double Options::get_double(std::string_view key, double fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k != key) continue;
    if (auto parsed = parse_double(v)) return *parsed;
    throw_not_a_number(key, v);
  }
  return fallback;
}

std::int64_t Options::get_int(std::string_view key, std::int64_t fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k != key) continue;
    if (auto parsed = parse_int(v)) return *parsed;
    throw_not_a_number(key, v);
  }
  return fallback;
}

std::string Options::get_string(std::string_view key, std::string_view fallback) const {
  for (const auto& [k, v] : kv_)
    if (k == key) return v;
  return std::string(fallback);
}

void Options::set(std::string key, std::string value) {
  for (auto& [k, v] : kv_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  kv_.emplace_back(std::move(key), std::move(value));
}

bool Options::get_bool(std::string_view key, bool fallback) const {
  // A present flag counts as true unless explicitly falsy, so a bare flag
  // that swallowed a trailing positional token still reads as set.
  for (const auto& [k, v] : kv_)
    if (k == key) return !(v.empty() || v == "false" || v == "0" || v == "no" || v == "off");
  return fallback;
}

}  // namespace rapid
