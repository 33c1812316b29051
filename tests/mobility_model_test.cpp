// Tests for the streaming mobility subsystem (mobility/mobility_model.h):
// bit-identity of the lazy pair-stream generators against the legacy
// materializing algorithms, replay cursors, the k-way merge tie-break
// contract, and the two movement-based models (vehicular grid, working day).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "mobility/exponential_model.h"
#include "mobility/mobility_model.h"
#include "mobility/powerlaw_model.h"
#include "mobility/vehicular_grid.h"
#include "mobility/working_day.h"
#include "util/rng.h"

namespace rapid {
namespace {

void expect_same_schedule(const MeetingSchedule& a, const MeetingSchedule& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.duration, b.duration);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Meeting& ma = a.meetings()[i];
    const Meeting& mb = b.meetings()[i];
    EXPECT_EQ(ma.a, mb.a) << "meeting " << i;
    EXPECT_EQ(ma.b, mb.b) << "meeting " << i;
    EXPECT_EQ(ma.time, mb.time) << "meeting " << i;  // bit-exact
    EXPECT_EQ(ma.capacity, mb.capacity) << "meeting " << i;
  }
}

// The pre-streaming exponential generator, verbatim: per-pair eager loops in
// a-major order followed by a stable sort. The lazy merge must reproduce its
// output bit for bit (same per-pair streams, ties in pair-creation order).
MeetingSchedule legacy_exponential(const ExponentialMobilityConfig& config, const Rng& rng) {
  MeetingSchedule schedule;
  schedule.num_nodes = config.num_nodes;
  schedule.duration = config.duration;
  for (NodeId a = 0; a < config.num_nodes; ++a) {
    for (NodeId b = a + 1; b < config.num_nodes; ++b) {
      Rng stream = rng.split("exp-pair", static_cast<std::uint64_t>(a) * 1009 +
                                             static_cast<std::uint64_t>(b));
      Time t = stream.exponential_mean(config.pair_mean_intermeeting);
      while (t < config.duration) {
        schedule.add(a, b, t,
                     draw_opportunity_bytes(stream, config.mean_opportunity,
                                            config.opportunity_cv));
        t += stream.exponential_mean(config.pair_mean_intermeeting);
      }
    }
  }
  schedule.sort();
  return schedule;
}

TEST(MobilityModel, ExponentialStreamBitIdenticalToLegacyGenerator) {
  ExponentialMobilityConfig config;
  config.num_nodes = 12;
  config.duration = 900;
  config.pair_mean_intermeeting = 40;
  const Rng rng(77);
  const MeetingSchedule legacy = legacy_exponential(config, rng);
  const std::unique_ptr<MobilityModel> model = make_exponential_model(config, rng);
  const MeetingSchedule streamed = materialize(*model);
  ASSERT_GT(streamed.size(), 100u);
  expect_same_schedule(legacy, streamed);
}

// Same check for the power-law generator (ranked pair means).
MeetingSchedule legacy_powerlaw(const PowerlawMobilityConfig& config, const Rng& rng,
                                const std::vector<int>& rank) {
  MeetingSchedule schedule;
  schedule.num_nodes = config.num_nodes;
  schedule.duration = config.duration;
  for (NodeId a = 0; a < config.num_nodes; ++a) {
    for (NodeId b = a + 1; b < config.num_nodes; ++b) {
      const double ra = rank[static_cast<std::size_t>(a)];
      const double rb = rank[static_cast<std::size_t>(b)];
      const double mean = config.base_mean * std::pow(ra * rb, config.skew);
      Rng stream = rng.split("pl-pair", static_cast<std::uint64_t>(a) * 1009 +
                                            static_cast<std::uint64_t>(b));
      Time t = stream.exponential_mean(mean);
      while (t < config.duration) {
        schedule.add(a, b, t,
                     draw_opportunity_bytes(stream, config.mean_opportunity,
                                            config.opportunity_cv));
        t += stream.exponential_mean(mean);
      }
    }
  }
  schedule.sort();
  return schedule;
}

TEST(MobilityModel, PowerlawStreamBitIdenticalToLegacyGenerator) {
  PowerlawMobilityConfig config;
  config.num_nodes = 14;
  config.duration = 700;
  const Rng rng(78);
  std::vector<int> rank;
  const std::unique_ptr<MobilityModel> model = make_powerlaw_model(config, rng, &rank);
  const MeetingSchedule streamed = materialize(*model);
  const MeetingSchedule legacy = legacy_powerlaw(config, rng, rank);
  ASSERT_GT(streamed.size(), 100u);
  expect_same_schedule(legacy, streamed);
}

TEST(MobilityModel, PairStreamStateIsBoundedByActivePairsNotMeetings) {
  // Stretching the horizon multiplies the meeting count but not the resident
  // pair state — the memory claim of the streaming refactor in miniature.
  std::vector<PairStreamModel::PairSpec> pairs;
  for (NodeId a = 0; a < 10; ++a)
    for (NodeId b = a + 1; b < 10; ++b)
      pairs.push_back({a, b, 5.0, PairStreamModel::kAlwaysActive});

  PairStreamModel short_model(10, 500.0, 10_KB, 0.5, "test-pair", Rng(70), pairs);
  PairStreamModel long_model(10, 5000.0, 10_KB, 0.5, "test-pair", Rng(70), pairs);
  EXPECT_LE(short_model.active_pairs(), pairs.size());
  EXPECT_LE(long_model.active_pairs(), pairs.size());
  const MeetingSchedule s_short = materialize(short_model);
  const MeetingSchedule s_long = materialize(long_model);
  EXPECT_GT(s_long.size(), 5 * s_short.size());  // meetings scale with the horizon

  // Pairs whose first meeting falls past the horizon never enter the heap.
  std::vector<PairStreamModel::PairSpec> rare = pairs;
  for (auto& spec : rare) spec.mean_gap = 1e9;
  PairStreamModel rare_model(10, 100.0, 10_KB, 0.5, "test-pair", Rng(71), rare);
  EXPECT_LT(rare_model.active_pairs(), 3u);
}

TEST(MobilityModel, ReplayModelStreamsScheduleWithoutCopying) {
  ExponentialMobilityConfig config;
  config.num_nodes = 6;
  config.duration = 300;
  Rng rng(80);
  const MeetingSchedule original = generate_exponential_schedule(config, rng);
  ASSERT_GT(original.size(), 0u);

  const std::unique_ptr<MobilityModel> replay = make_replay_model(original);
  EXPECT_EQ(replay->num_nodes(), original.num_nodes);
  EXPECT_EQ(replay->duration(), original.duration);
  // peek() hands back pointers into the original storage: a cursor, no copy.
  EXPECT_EQ(replay->peek(), &original.meetings().front());
  const MeetingSchedule round_trip = materialize(*replay);
  expect_same_schedule(original, round_trip);
}

TEST(MobilityModel, ReplayModelRejectsUnsortedSchedule) {
  MeetingSchedule s;
  s.num_nodes = 3;
  s.duration = 100;
  s.add(0, 1, 50, 1_KB);
  s.add(1, 2, 10, 2_KB);
  EXPECT_THROW(make_replay_model(s), std::invalid_argument);
}

TEST(VehicularGrid, StreamsSortedValidMeetings) {
  VehicularGridConfig config;  // defaults: 36 vehicles, 6x6 grid, 2 h
  const Rng rng(81);
  const std::unique_ptr<MobilityModel> model = make_vehicular_grid_model(config, rng);
  EXPECT_EQ(model->num_nodes(), config.num_vehicles);

  Time last = 0;
  std::size_t count = 0;
  std::set<std::pair<NodeId, NodeId>> pairs;
  while (const Meeting* m = model->peek()) {
    EXPECT_GE(m->time, last);
    last = m->time;
    EXPECT_LT(m->time, config.duration);
    EXPECT_GE(m->a, 0);
    EXPECT_LT(m->a, config.num_vehicles);
    EXPECT_GE(m->b, 0);
    EXPECT_LT(m->b, config.num_vehicles);
    EXPECT_NE(m->a, m->b);
    EXPECT_GT(m->capacity, 0);
    EXPECT_LE(m->capacity,
              static_cast<Bytes>(static_cast<double>(config.bandwidth_per_second) *
                                 config.max_contact));
    pairs.insert({std::min(m->a, m->b), std::max(m->a, m->b)});
    ++count;
    model->pop();
  }
  // A 2 h day on a 6x6 grid produces a real contact stream with variety.
  EXPECT_GT(count, 200u);
  EXPECT_GT(pairs.size(), 30u);
}

TEST(VehicularGrid, DeterministicForSeedAndSensitiveToIt) {
  VehicularGridConfig config;
  config.num_vehicles = 12;
  config.duration = 0.5 * kSecondsPerHour;
  const std::unique_ptr<MobilityModel> a = make_vehicular_grid_model(config, Rng(5));
  const std::unique_ptr<MobilityModel> b = make_vehicular_grid_model(config, Rng(5));
  const std::unique_ptr<MobilityModel> c = make_vehicular_grid_model(config, Rng(6));
  const MeetingSchedule sa = materialize(*a);
  const MeetingSchedule sb = materialize(*b);
  const MeetingSchedule sc = materialize(*c);
  expect_same_schedule(sa, sb);
  EXPECT_NE(sa.size(), sc.size());
}

TEST(VehicularGrid, RoutesStayOnGridAndRejectBadConfig) {
  VehicularGridConfig config;
  const auto routes = vehicular_grid_routes(config, Rng(7));
  ASSERT_EQ(static_cast<int>(routes.size()), config.num_routes);
  for (const auto& route : routes) {
    ASSERT_EQ(static_cast<int>(route.size()), config.route_stops);
    for (int stop : route) {
      EXPECT_GE(stop, 0);
      EXPECT_LT(stop, config.grid_width * config.grid_height);
    }
  }
  VehicularGridConfig bad = config;
  bad.num_vehicles = 1;
  EXPECT_THROW(make_vehicular_grid_model(bad, Rng(1)), std::invalid_argument);
  bad = config;
  bad.mean_dwell = 0;
  EXPECT_THROW(make_vehicular_grid_model(bad, Rng(1)), std::invalid_argument);
}

TEST(WorkingDay, MeetingsRespectClusterAndWindowStructure) {
  WorkingDayConfig config;  // defaults: 48 nodes, two compressed days
  const Rng rng(82);
  const WorkingDayClusters clusters = working_day_clusters(config, rng);
  const std::unique_ptr<MobilityModel> model = make_working_day_model(config, rng);

  const Time work_start = config.work_start_fraction * config.day_length;
  const Time work_end = config.work_end_fraction * config.day_length;
  const Time commute = config.commute_fraction * config.day_length;

  Time last = 0;
  std::size_t office_meetings = 0, home_meetings = 0;
  while (const Meeting* m = model->peek()) {
    EXPECT_GE(m->time, last);
    last = m->time;
    EXPECT_LT(m->time, config.duration);
    const std::size_t ia = static_cast<std::size_t>(m->a);
    const std::size_t ib = static_cast<std::size_t>(m->b);
    const bool colleagues = clusters.office[ia] == clusters.office[ib];
    const bool neighbours = clusters.home[ia] == clusters.home[ib];
    ASSERT_TRUE(colleagues || neighbours);
    const Time phase = std::fmod(m->time, config.day_length);
    if (colleagues) {
      // Office pairs meet strictly inside the work window.
      EXPECT_GE(phase, work_start);
      EXPECT_LT(phase, work_end);
      ++office_meetings;
    } else {
      // Home pairs meet outside the work window and its commute slack.
      EXPECT_TRUE(phase < work_start - commute || phase >= work_end + commute)
          << "phase " << phase;
      ++home_meetings;
    }
    model->pop();
  }
  EXPECT_GT(office_meetings, 50u);
  EXPECT_GT(home_meetings, 50u);
}

TEST(WorkingDay, DeterministicAndValidatesConfig) {
  WorkingDayConfig config;
  config.num_nodes = 20;
  config.duration = config.day_length;  // one day
  const MeetingSchedule a = materialize(*make_working_day_model(config, Rng(9)));
  const MeetingSchedule b = materialize(*make_working_day_model(config, Rng(9)));
  expect_same_schedule(a, b);

  WorkingDayConfig bad = config;
  bad.work_start_fraction = 0.8;
  bad.work_end_fraction = 0.3;
  EXPECT_THROW(make_working_day_model(bad, Rng(1)), std::invalid_argument);
  bad = config;
  bad.commute_fraction = 0.5;
  EXPECT_THROW(make_working_day_model(bad, Rng(1)), std::invalid_argument);
}

TEST(MobilityModel, MaterializeKeepsIncrementalSortState) {
  // Streamed, time-ordered construction must not pay a re-sort: the drained
  // schedule reports sorted without a rescan (O(1) cached state), and the
  // meetings really are in order.
  ExponentialMobilityConfig config;
  config.num_nodes = 8;
  config.duration = 400;
  const std::unique_ptr<MobilityModel> model = make_exponential_model(config, Rng(83));
  const MeetingSchedule s = materialize(*model);
  EXPECT_TRUE(s.is_sorted());
  Time last = 0;
  for (const Meeting& m : s.meetings()) {
    EXPECT_GE(m.time, last);
    last = m.time;
  }
}

}  // namespace
}  // namespace rapid
