// Option-parser coverage: the `--key=value` and `--key value` forms must be
// interchangeable, including the edge cases drivers rely on (`--flag` before
// another flag, empty values, '=' inside a value).
#include <gtest/gtest.h>

#include <stdexcept>

#include "util/strings.h"

namespace rapid {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
}

TEST(Options, EqualsFormParsesKeyAndValue) {
  const Options options = parse({"--runs=3", "--mode=fast"});
  EXPECT_EQ(options.get_int("runs", 0), 3);
  EXPECT_EQ(options.get_string("mode", "slow"), "fast");
}

TEST(Options, SpaceFormParsesKeyAndValue) {
  const Options options = parse({"--runs", "3", "--mode", "fast"});
  EXPECT_EQ(options.get_int("runs", 0), 3);
  EXPECT_EQ(options.get_string("mode", "slow"), "fast");
}

TEST(Options, BothFormsMix) {
  const Options options = parse({"--scenario=trace", "--days", "2", "--quick"});
  EXPECT_EQ(options.get_string("scenario", ""), "trace");
  EXPECT_EQ(options.get_int("days", 0), 2);
  EXPECT_TRUE(options.get_bool("quick", false));
}

TEST(Options, BareFlagBeforeAnotherFlagIsTrue) {
  // `--verbose` must not swallow `--runs` as its value.
  const Options options = parse({"--verbose", "--runs", "7"});
  EXPECT_TRUE(options.get_bool("verbose", false));
  EXPECT_EQ(options.get_int("runs", 0), 7);
}

TEST(Options, EqualsFormKeepsLaterEqualsSigns) {
  const Options options = parse({"--filter=key=value"});
  EXPECT_EQ(options.get_string("filter", ""), "key=value");
}

TEST(Options, EmptyEqualsValueReadsAsFalsyFlag) {
  const Options options = parse({"--quick="});
  EXPECT_TRUE(options.has("quick"));
  EXPECT_FALSE(options.get_bool("quick", true));
  EXPECT_EQ(options.get_string("quick", "fallback"), "");
}

TEST(Options, SpaceFormAcceptsNegativeNumbers) {
  // "-3" does not start with "--", so it is consumed as the value.
  const Options options = parse({"--offset", "-3"});
  EXPECT_EQ(options.get_int("offset", 0), -3);
  EXPECT_EQ(parse({"--offset=-3"}).get_int("offset", 0), -3);
}

TEST(Options, UnparsableNumberThrowsNamingFlagAndValue) {
  const Options options = parse({"--load=abc", "--threads", "2x"});
  try {
    options.get_double("load", 0.25);
    ADD_FAILURE() << "get_double accepted a non-numeric value";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--load: not a number: 'abc'");
  }
  try {
    options.get_int("threads", 1);
    ADD_FAILURE() << "get_int accepted a non-numeric value";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--threads: not a number: '2x'");
  }
  // An absent key still falls back.
  EXPECT_EQ(options.get_double("days", 4.5), 4.5);
  EXPECT_EQ(options.get_int("runs", 3), 3);
}

TEST(Options, SetOverridesAndAppends) {
  Options options = parse({"--csv=out.csv"});
  options.set("csv", "other.csv");
  options.set("json", "out.json");
  EXPECT_EQ(options.get_string("csv", ""), "other.csv");
  EXPECT_EQ(options.get_string("json", ""), "out.json");
}

TEST(Options, PositionalTokensIgnored) {
  const Options options = parse({"positional", "--key=v", "trailing"});
  EXPECT_EQ(options.get_string("key", ""), "v");
  EXPECT_FALSE(options.has("positional"));
  EXPECT_FALSE(options.has("trailing"));
}

}  // namespace
}  // namespace rapid
