#ifndef PROGRES_PERFBENCH_OBSERVERS_H_
#define PROGRES_PERFBENCH_OBSERVERS_H_

// Observers the benchmark wraps around the progressive mechanism M. Both are
// ProgressiveMechanism decorators, so they see the pipeline only through the
// public Resolve interface and never change a resolve decision:
//
//   * ProgressProbe wraps on_duplicate and reads the wall clock once per
//     duplicate — the source of first_result_s and recall50_wall_s. It runs
//     in every timed run.
//   * TracedMechanism additionally times each Resolve call, wraps the
//     should_resolve dominance check (aggregated per call, no span per
//     check) and hash-samples the pairs that reach the match function. It
//     runs only in the separate traced run.
//
// Spans go to an in-memory SpanLog written out as Chrome trace JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mechanism/mechanism.h"
#include "model/entity.h"

namespace progres {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Wall-clock spans kept in memory, each tagged with a small per-thread lane
// number (0 is the first thread that recorded, normally the driver).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void Add(std::string name, Clock::time_point begin, Clock::time_point end) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), LaneLocked(), begin, end});
  }

  size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeJson(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                   s.name.c_str(), s.lane,
                   SecondsBetween(origin_, s.begin) * 1e6,
                   SecondsBetween(s.begin, s.end) * 1e6,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int lane = 0;
    Clock::time_point begin;
    Clock::time_point end;
  };

  int LaneLocked() {
    const std::thread::id id = std::this_thread::get_id();
    const auto it = std::find(lanes_.begin(), lanes_.end(), id);
    if (it != lanes_.end()) return static_cast<int>(it - lanes_.begin());
    lanes_.push_back(id);
    return static_cast<int>(lanes_.size()) - 1;
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> lanes_;
};

// Records (seconds since Start, pair) for every duplicate the wrapped
// mechanism reports. Thread-safe: reduce tasks of the threaded backend call
// Resolve concurrently.
class ProgressProbe : public ProgressiveMechanism {
 public:
  explicit ProgressProbe(const ProgressiveMechanism& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  // Clears the recorded events and restarts the clock; call right before
  // ProgressiveEr::Run.
  void Start() {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    start_ = Clock::now();
  }

  std::vector<std::pair<double, PairKey>> TakeEvents() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(events_);
  }

  ResolveOutcome Resolve(const ResolveRequest& request) const override {
    ResolveRequest wrapped = request;
    wrapped.on_duplicate = [this, &request](EntityId a, EntityId b) {
      if (request.on_duplicate) request.on_duplicate(a, b);
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(mu_);
      events_.emplace_back(SecondsBetween(start_, now), MakePairKey(a, b));
    };
    return inner_.Resolve(wrapped);
  }

 private:
  const ProgressiveMechanism& inner_;
  mutable std::mutex mu_;
  Clock::time_point start_ = Clock::now();
  mutable std::vector<std::pair<double, PairKey>> events_;
};

// Totals of the traced run's mechanism, redundancy and similarity layers.
struct MechanismTally {
  int64_t calls = 0;
  double wall_s = 0.0;  // summed over threads
  double max_call_s = 0.0;
  int64_t duplicates = 0;
  int64_t distinct = 0;
  int64_t skipped = 0;
  int64_t stopped_early = 0;
  int64_t checks = 0;    // should_resolve invocations
  int64_t admitted = 0;  // ... that returned true (then compared)
  double check_wall_s = 0.0;
};

// splitmix64 finalizer: a fixed, well-mixed hash for pair sampling.
inline uint64_t MixPair(PairKey key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Full decorator of the traced run. Every pair admitted by should_resolve is
// compared by the match function next (ResolveLoop::ProcessPair), so the
// admitted pairs are exactly the compared ones; those whose hash falls in a
// 1/`sample_stride` slice are kept for replaying through
// MatchFunction::Resolve outside the run.
class TracedMechanism : public ProgressiveMechanism {
 public:
  TracedMechanism(const ProgressiveMechanism& inner, SpanLog* spans,
                  uint64_t sample_stride)
      : inner_(inner),
        spans_(spans),
        sample_stride_(std::max<uint64_t>(1, sample_stride)) {}

  std::string name() const override { return inner_.name(); }

  MechanismTally tally() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return tally_;
  }
  std::vector<PairKey> TakeSamples() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(samples_);
  }

  ResolveOutcome Resolve(const ResolveRequest& request) const override {
    const Clock::time_point begin = Clock::now();
    MechanismTally call;
    std::vector<PairKey> samples;
    ResolveRequest wrapped = request;
    std::function<bool(const Entity&, const Entity&)> check;
    if (request.should_resolve != nullptr) {
      check = [&](const Entity& a, const Entity& b) {
        const Clock::time_point t0 = Clock::now();
        const bool admit = (*request.should_resolve)(a, b);
        call.check_wall_s += SecondsBetween(t0, Clock::now());
        ++call.checks;
        if (admit) {
          ++call.admitted;
          const PairKey key = MakePairKey(a.id, b.id);
          if (MixPair(key) % sample_stride_ == 0) samples.push_back(key);
        }
        return admit;
      };
      wrapped.should_resolve = &check;
    }
    const ResolveOutcome outcome = inner_.Resolve(wrapped);
    const Clock::time_point end = Clock::now();
    const double seconds = SecondsBetween(begin, end);
    spans_->Add("mechanism.resolve", begin, end);

    const std::lock_guard<std::mutex> lock(mu_);
    ++tally_.calls;
    tally_.wall_s += seconds;
    tally_.max_call_s = std::max(tally_.max_call_s, seconds);
    tally_.duplicates += outcome.duplicates;
    tally_.distinct += outcome.distinct;
    tally_.skipped += outcome.skipped;
    tally_.stopped_early += outcome.stopped_early ? 1 : 0;
    tally_.checks += call.checks;
    tally_.admitted += call.admitted;
    tally_.check_wall_s += call.check_wall_s;
    samples_.insert(samples_.end(), samples.begin(), samples.end());
    return outcome;
  }

 private:
  const ProgressiveMechanism& inner_;
  SpanLog* spans_;
  uint64_t sample_stride_;
  mutable std::mutex mu_;
  mutable MechanismTally tally_;
  mutable std::vector<PairKey> samples_;
};

}  // namespace perfbench
}  // namespace progres

#endif  // PROGRES_PERFBENCH_OBSERVERS_H_
