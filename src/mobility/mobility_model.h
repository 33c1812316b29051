// Streaming mobility: a MobilityModel is a lazy, time-ordered source of
// node meetings, pulled one contact at a time with peek()/pop() instead of
// materializing the whole MeetingSchedule up front. This removes the last
// O(total-contacts) memory term from the simulation pipeline: a model's
// resident state is bounded by its fleet/pair structure, never by how many
// meetings the experiment duration produces.
//
// Contract (shared by every implementation):
//   * peek() returns the next meeting, stable until pop(), or nullptr when
//     the stream is drained; successive meetings have non-decreasing times;
//   * node ids are within [0, num_nodes()) and meetings never pair a node
//     with itself;
//   * the stream is a pure function of the model's construction inputs
//     (config + Rng), so replays and parallel sweep cells are bit-identical.
//
// Equal-timestamp meetings follow a canonical deterministic tie-break order:
// Simulation merges several streams with ties in registration order, and
// the pair-stream engine emits ties in pair-creation order, which reproduces
// the stable_sort order of the legacy materializing generators exactly.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "dtn/schedule.h"
#include "util/rng.h"

namespace rapid {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  virtual int num_nodes() const = 0;
  virtual Time duration() const = 0;

  // Next meeting in non-decreasing time order (stable until pop()), or
  // nullptr when the stream is drained.
  virtual const Meeting* peek() = 0;
  virtual void pop() = 0;
};

// Drains a model into the legacy materialized representation. Because models
// emit in time order, the resulting schedule's incremental sort state stays
// "sorted" and no re-sort happens.
MeetingSchedule materialize(MobilityModel& model);

// Replays an existing schedule through the model interface from a cursor —
// the schedule is borrowed, not copied, so replay adds O(1) resident state.
// Streamed DieselNet days and every Simulation(schedule, ...) run use it.
// Throws std::invalid_argument on an unsorted schedule.
std::unique_ptr<MobilityModel> make_replay_model(const MeetingSchedule& schedule);

// The shared lazy-Poisson engine behind the synthetic models: every pair of
// nodes that can meet owns an exponential inter-meeting stream (optionally
// gated by daily activity windows), and a binary min-heap keyed by
// (next-meeting time, pair rank) merges the streams on demand. Resident
// state is O(active pairs); pairs whose first meeting falls past the horizon
// are discarded at construction.
//
// Per-pair randomness is Rng::split(stream_label, a * stride + b) with
// stride = max(1009, num_nodes), and the per-pair draw order is
//   gap, (opportunity, gap)*
// — both exactly as the legacy materializing generators drew them, so
// materialize(model) is bit-identical to the historical output.
class PairStreamModel : public MobilityModel {
 public:
  // Daily activity windows: the pair's Poisson clock only advances inside
  // the windows, which repeat every day_length seconds. Windows must be
  // sorted, non-overlapping, and within [0, day_length].
  struct DailyWindows {
    Time day_length = 0;
    std::vector<std::pair<Time, Time>> windows;
  };
  static constexpr std::uint32_t kAlwaysActive = 0xffffffffu;

  struct PairSpec {
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    double mean_gap = 0;  // mean inter-meeting time, counted in active time
    std::uint32_t window_set = kAlwaysActive;  // index into window_sets
  };

  PairStreamModel(int num_nodes, Time duration, Bytes mean_opportunity,
                  double opportunity_cv, std::string_view stream_label, const Rng& rng,
                  const std::vector<PairSpec>& pairs,
                  std::vector<DailyWindows> window_sets = {});

  int num_nodes() const override { return num_nodes_; }
  Time duration() const override { return duration_; }
  const Meeting* peek() override;
  void pop() override;

  // Live per-pair streams (diagnostic: the resident-state bound).
  std::size_t active_pairs() const { return heap_.size(); }

 private:
  struct PairState {
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    double mean_gap = 0;
    std::uint32_t window_set = kAlwaysActive;
    double active_elapsed = 0;  // Poisson clock, in active time
    Time next = 0;              // absolute time of the pair's next meeting
    Rng rng{0};
  };

  Time to_absolute(const PairState& pair, double active_elapsed) const;
  bool heap_less(std::uint32_t x, std::uint32_t y) const;
  void sift_down(std::size_t at);
  void sift_up(std::size_t at);

  int num_nodes_ = 0;
  Time duration_ = 0;
  Bytes mean_opportunity_ = 0;
  double opportunity_cv_ = 0;
  std::vector<DailyWindows> window_sets_;
  std::vector<double> window_active_per_day_;  // cached sum per window set

  std::vector<PairState> pairs_;    // indexed by pair rank (creation order)
  std::vector<std::uint32_t> heap_;  // min-heap of pair ranks
  Meeting current_;
  bool current_ready_ = false;
};

}  // namespace rapid
