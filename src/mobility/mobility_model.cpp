#include "mobility/mobility_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "mobility/exponential_model.h"  // draw_opportunity_bytes

namespace rapid {

MeetingSchedule materialize(MobilityModel& model) {
  MeetingSchedule schedule;
  schedule.num_nodes = model.num_nodes();
  schedule.duration = model.duration();
  while (const Meeting* m = model.peek()) {
    schedule.add(m->a, m->b, m->time, m->capacity);
    model.pop();
  }
  // Models emit in time order, so this is an O(1) no-op; it also asserts the
  // contract for free in the unlikely case a model misbehaves.
  schedule.sort();
  return schedule;
}

namespace {

class ScheduleReplayModel : public MobilityModel {
 public:
  explicit ScheduleReplayModel(const MeetingSchedule& schedule) : schedule_(&schedule) {
    if (!schedule.is_sorted())
      throw std::invalid_argument("make_replay_model: schedule must be sorted");
  }

  int num_nodes() const override { return schedule_->num_nodes; }
  Time duration() const override { return schedule_->duration; }

  const Meeting* peek() override {
    if (cursor_ >= schedule_->size()) return nullptr;
    return &schedule_->meetings()[cursor_];
  }

  void pop() override {
    if (cursor_ < schedule_->size()) ++cursor_;
  }

 private:
  const MeetingSchedule* schedule_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<MobilityModel> make_replay_model(const MeetingSchedule& schedule) {
  return std::make_unique<ScheduleReplayModel>(schedule);
}

// ---------------------------------------------------------------------------
// PairStreamModel
// ---------------------------------------------------------------------------

PairStreamModel::PairStreamModel(int num_nodes, Time duration, Bytes mean_opportunity,
                                 double opportunity_cv, std::string_view stream_label,
                                 const Rng& rng, const std::vector<PairSpec>& pairs,
                                 std::vector<DailyWindows> window_sets)
    : num_nodes_(num_nodes),
      duration_(duration),
      mean_opportunity_(mean_opportunity),
      opportunity_cv_(opportunity_cv),
      window_sets_(std::move(window_sets)) {
  if (num_nodes < 2) throw std::invalid_argument("PairStreamModel: need >= 2 nodes");
  if (duration <= 0) throw std::invalid_argument("PairStreamModel: bad duration");

  window_active_per_day_.reserve(window_sets_.size());
  for (const DailyWindows& set : window_sets_) {
    if (set.day_length <= 0)
      throw std::invalid_argument("PairStreamModel: bad window day length");
    double active = 0;
    Time prev_end = 0;
    for (const auto& [from, to] : set.windows) {
      if (from < prev_end || to <= from || to > set.day_length)
        throw std::invalid_argument("PairStreamModel: malformed activity window");
      prev_end = to;
      active += to - from;
    }
    if (active <= 0)
      throw std::invalid_argument("PairStreamModel: window set with no active time");
    window_active_per_day_.push_back(active);
  }

  // Preserves the legacy generators' per-pair stream labels for fleets up to
  // 1009 nodes and stays collision-free above that.
  const std::uint64_t stride =
      std::max<std::uint64_t>(1009, static_cast<std::uint64_t>(num_nodes));

  pairs_.reserve(pairs.size());
  for (const PairSpec& spec : pairs) {
    if (spec.a < 0 || spec.b < 0 || spec.a >= num_nodes || spec.b >= num_nodes ||
        spec.a == spec.b)
      throw std::invalid_argument("PairStreamModel: bad pair");
    if (spec.mean_gap <= 0)
      throw std::invalid_argument("PairStreamModel: bad pair mean gap");
    if (spec.window_set != kAlwaysActive && spec.window_set >= window_sets_.size())
      throw std::invalid_argument("PairStreamModel: bad window-set index");

    PairState state;
    state.a = spec.a;
    state.b = spec.b;
    state.mean_gap = spec.mean_gap;
    state.window_set = spec.window_set;
    state.rng = rng.split(stream_label,
                          static_cast<std::uint64_t>(spec.a) * stride +
                              static_cast<std::uint64_t>(spec.b));
    state.active_elapsed = state.rng.exponential_mean(spec.mean_gap);
    state.next = to_absolute(state, state.active_elapsed);
    if (!(state.next < duration_)) continue;  // never meets within the horizon

    pairs_.push_back(state);
    heap_.push_back(static_cast<std::uint32_t>(pairs_.size() - 1));
    sift_up(heap_.size() - 1);
  }
}

Time PairStreamModel::to_absolute(const PairState& pair, double active_elapsed) const {
  if (pair.window_set == kAlwaysActive) return active_elapsed;
  const DailyWindows& set = window_sets_[pair.window_set];
  const double per_day = window_active_per_day_[pair.window_set];

  double days = std::floor(active_elapsed / per_day);
  double rem = active_elapsed - days * per_day;
  // Guard the floating-point edge where rem lands exactly on a day of
  // active time.
  while (rem >= per_day) {
    rem -= per_day;
    days += 1;
  }
  for (const auto& [from, to] : set.windows) {
    const double len = to - from;
    if (rem < len) return days * set.day_length + from + rem;
    rem -= len;
  }
  // Unreachable given rem < per_day; map to the end of the last window.
  return days * set.day_length + set.windows.back().second;
}

bool PairStreamModel::heap_less(std::uint32_t x, std::uint32_t y) const {
  const Time tx = pairs_[x].next;
  const Time ty = pairs_[y].next;
  if (tx != ty) return tx < ty;
  // Equal times break toward the earlier-created pair, which reproduces the
  // stable_sort order of the materializing generators.
  return x < y;
}

void PairStreamModel::sift_up(std::size_t at) {
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!heap_less(heap_[at], heap_[parent])) return;
    std::swap(heap_[at], heap_[parent]);
    at = parent;
  }
}

void PairStreamModel::sift_down(std::size_t at) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * at + 1;
    if (left >= n) return;
    std::size_t smallest = left;
    const std::size_t right = left + 1;
    if (right < n && heap_less(heap_[right], heap_[left])) smallest = right;
    if (!heap_less(heap_[smallest], heap_[at])) return;
    std::swap(heap_[at], heap_[smallest]);
    at = smallest;
  }
}

const Meeting* PairStreamModel::peek() {
  if (heap_.empty()) return nullptr;
  if (!current_ready_) {
    PairState& pair = pairs_[heap_.front()];
    // The opportunity draw happens at emit time, after the horizon check —
    // the exact per-pair draw order of the legacy generators.
    current_.a = pair.a;
    current_.b = pair.b;
    current_.time = pair.next;
    current_.capacity = draw_opportunity_bytes(pair.rng, mean_opportunity_, opportunity_cv_);
    current_ready_ = true;
  }
  return &current_;
}

void PairStreamModel::pop() {
  if (heap_.empty()) return;
  // Force the opportunity draw even if the consumer never peeked, so the
  // per-pair draw sequence stays aligned.
  if (!current_ready_) peek();
  current_ready_ = false;

  PairState& pair = pairs_[heap_.front()];
  pair.active_elapsed += pair.rng.exponential_mean(pair.mean_gap);
  pair.next = to_absolute(pair, pair.active_elapsed);
  if (pair.next < duration_) {
    sift_down(0);
  } else {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

}  // namespace rapid
