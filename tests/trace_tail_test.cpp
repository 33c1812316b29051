// TraceTailCursor: resumable tailing of a live-appended contact trace.
// Covers the two failure modes a naive tailer gets wrong — a writer caught
// mid-line (the partial line must stay pending, whole) and appends between
// polls (the cursor must resume at its saved offset) — plus the strict
// line-numbered rejection of malformed input (the same errors read_trace
// raises) and snapshot/restore of the parse progress.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mobility/trace_io.h"
#include "util/binio.h"

namespace rapid {
namespace {

class TraceTailTest : public testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the tests of this fixture as parallel
    // processes, and a shared file would be truncated under a running test.
    const testing::TestInfo* test = testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/rapid_tail_test_" + test->name() + ".txt";
    std::ofstream truncate(path_, std::ios::trunc);
  }

  // Appends exactly `text` (no newline added) like an external writer would.
  void append(const std::string& text) {
    std::ofstream f(path_, std::ios::app | std::ios::binary);
    ASSERT_TRUE(f);
    f << text;
  }

  std::string path_;
};

constexpr const char* kHeader = "rapid-trace v1\nfleet 4\nday 3600 active 0 1 2 3\n";

TEST_F(TraceTailTest, ReadsACompleteFileInOnePoll) {
  append(std::string(kHeader) +
         "meet 0 1 10 1000\n"
         "meet 1 2 20 2000\n"
         "end\n");
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_EQ(cursor.poll(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].a, 0);
  EXPECT_EQ(out[0].b, 1);
  EXPECT_DOUBLE_EQ(out[0].time, 10);
  EXPECT_EQ(out[0].capacity, 1000);
  EXPECT_EQ(out[1].b, 2);
  EXPECT_TRUE(cursor.finished());
  EXPECT_EQ(cursor.fleet(), 4);
  EXPECT_DOUBLE_EQ(cursor.day_duration(), 3600);
  // Nothing more to read; the cursor stays parked at EOF.
  EXPECT_EQ(cursor.poll(out), 0u);
}

TEST_F(TraceTailTest, PartialTrailingLineStaysPendingUntilComplete) {
  append(std::string(kHeader) + "meet 0 1 10 1000\nmeet 1 2 2");  // writer mid-append
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_EQ(cursor.poll(out), 1u);  // the truncated line must NOT be parsed
  EXPECT_EQ(cursor.poll(out), 0u);  // still pending
  append("0 2000\n");               // writer finishes the line
  EXPECT_EQ(cursor.poll(out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].a, 1);
  EXPECT_EQ(out[1].b, 2);
  EXPECT_DOUBLE_EQ(out[1].time, 20);
  EXPECT_EQ(out[1].capacity, 2000);
}

TEST_F(TraceTailTest, ResumesAcrossAppends) {
  append(kHeader);
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_EQ(cursor.poll(out), 0u);
  EXPECT_EQ(cursor.fleet(), 4);
  append("meet 0 1 5 100\nmeet 2 3 6 200\n");
  EXPECT_EQ(cursor.poll(out), 2u);
  append("meet 0 2 7 300\nend\n");
  EXPECT_EQ(cursor.poll(out), 1u);
  EXPECT_TRUE(cursor.finished());
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(TraceTailTest, MalformedInputFailsWithAbsoluteLineNumber) {
  append(std::string(kHeader) + "meet 0 1 10 1000\nmeet 0 0 11 1000\n");
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  try {
    cursor.poll(out);
    FAIL() << "self meeting should be rejected";
  } catch (const std::runtime_error& e) {
    // kHeader is 3 lines, the bad line is the 5th of the file.
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("self meeting"), std::string::npos) << e.what();
  }
  // The good line before the bad one was delivered.
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(TraceTailTest, RejectsContentAfterEnd) {
  append(std::string(kHeader) + "end\nmeet 0 1 10 1000\n");
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_THROW(cursor.poll(out), std::runtime_error);
}

TEST_F(TraceTailTest, RejectsNonMonotonicMeetTimes) {
  append(std::string(kHeader) + "meet 0 1 10 1000\nmeet 1 2 9 1000\n");
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_THROW(cursor.poll(out), std::runtime_error);
}

// The tail parser mirrors read_trace: every single-day input read_trace
// rejects, the cursor rejects with the same message and line number.
TEST_F(TraceTailTest, RejectsWhatReadTraceRejectsWithTheSameError) {
  struct Case {
    const char* name;
    const char* body;
  };
  const Case cases[] = {
      {"out-of-range meeting node",
       "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 9 5 10\nend\n"},
      {"out-of-range active bus", "rapid-trace v1\nfleet 4\nday 100 active 0 7\nend\n"},
      {"unknown keyword", "rapid-trace v1\nfleet 4\nbogus 1 2 3\n"},
      {"trailing garbage after meet",
       "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 1 5 10 extra\nend\n"},
      {"trailing garbage after fleet", "rapid-trace v1\nfleet 4 surplus\n"},
      {"garbage in the active list",
       "rapid-trace v1\nfleet 4\nday 100 active 0 1 bogus\nmeet 0 1 5 10\nend\n"},
      {"truncated meet", "rapid-trace v1\nfleet 4\nday 100 active 0 1\nmeet 0 1 5\nend\n"},
      {"duplicate fleet", "rapid-trace v1\nfleet 4\nfleet 6\n"},
      {"day before fleet", "rapid-trace v1\nday 100 active 0 1\nend\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string expected;
    try {
      std::istringstream is(c.body);
      read_trace(is);
    } catch (const std::runtime_error& e) {
      expected = e.what();
    }
    ASSERT_NE(expected.find("line "), std::string::npos) << "read_trace accepted the input";

    std::ofstream(path_, std::ios::trunc | std::ios::binary) << c.body;
    TraceTailCursor cursor(path_);
    std::vector<Meeting> out;
    std::string actual;
    try {
      cursor.poll(out);
    } catch (const std::runtime_error& e) {
      actual = e.what();
    }
    EXPECT_EQ(actual, expected);
  }
}

TEST_F(TraceTailTest, SaveLoadResumesAtTheExactOffset) {
  append(std::string(kHeader) + "meet 0 1 10 1000\n");
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_EQ(cursor.poll(out), 1u);

  std::stringstream state;
  {
    BinWriter w(state);
    cursor.save(w);
  }
  append("meet 1 2 20 2000\nend\n");

  // A fresh cursor restored from the saved state picks up exactly where the
  // old one stopped — no re-reads, no skips, day header intact.
  TraceTailCursor resumed(path_);
  BinReader r(state);
  resumed.load(r);
  EXPECT_EQ(resumed.offset(), cursor.offset());
  std::vector<Meeting> rest;
  EXPECT_EQ(resumed.poll(rest), 1u);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].a, 1);
  EXPECT_EQ(rest[0].b, 2);
  EXPECT_TRUE(resumed.finished());
  // Monotonicity is enforced across the restore boundary too.
  EXPECT_DOUBLE_EQ(resumed.last_meet_time(), 20);
}

TEST_F(TraceTailTest, TruncatedFileFailsLoudlyInsteadOfResumingPastEof) {
  append(std::string(kHeader) + "meet 0 1 10 1000\nmeet 1 2 20 2000\n");
  TraceTailCursor cursor(path_);
  std::vector<Meeting> out;
  EXPECT_EQ(cursor.poll(out), 2u);

  // The file shrinks below the cursor's resume offset — truncated or swapped
  // for a shorter one. seekg past EOF succeeds silently, so without the size
  // check the next poll would quietly resume mid-nothing (and, once the file
  // regrows, mid-record). It must throw, and name how far the cursor had read.
  std::ofstream rewrite(path_, std::ios::trunc | std::ios::binary);
  rewrite << "rapid-trace v1\n";
  rewrite.close();
  try {
    cursor.poll(out);
    FAIL() << "poll on a truncated file should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("5 line(s)"), std::string::npos) << e.what();
  }
  EXPECT_EQ(out.size(), 2u);  // nothing bogus was appended

  // A regrown file is just as unreadable from a stale offset: the cursor must
  // keep refusing rather than resume inside the new content.
  append("fleet 4\nday 3600 active 0 1 2 3\nmeet 0 1 1 1\n");
  EXPECT_THROW(cursor.poll(out), std::runtime_error);
}

TEST_F(TraceTailTest, TailedMeetingsMatchReadTrace) {
  const std::string body = std::string(kHeader) +
                           "meet 0 1 10 1000\n"
                           "meet 1 2 20 2000\n"
                           "meet 2 3 30 3000\n"
                           "end\n";
  append(body);
  std::istringstream is(body);
  const DieselNetTrace reference = read_trace(is);
  TraceTailCursor cursor(path_);
  std::vector<Meeting> tailed;
  cursor.poll(tailed);
  ASSERT_EQ(tailed.size(), reference.days[0].schedule.size());
  for (std::size_t i = 0; i < tailed.size(); ++i) {
    EXPECT_EQ(tailed[i].a, reference.days[0].schedule.meetings()[i].a);
    EXPECT_EQ(tailed[i].b, reference.days[0].schedule.meetings()[i].b);
    EXPECT_DOUBLE_EQ(tailed[i].time, reference.days[0].schedule.meetings()[i].time);
    EXPECT_EQ(tailed[i].capacity, reference.days[0].schedule.meetings()[i].capacity);
  }
}

}  // namespace
}  // namespace rapid
