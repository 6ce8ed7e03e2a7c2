// Span-invariant suite for the runtime tracing layer (mapreduce/trace.h).
//
// Every recorded execution must satisfy, by construction:
//   * attempt spans on one (process, phase, slot) lane never overlap;
//   * child phase spans (shuffle, checkpoint save/restore) nest inside an
//     attempt span of the same task on the same lane;
//   * span and instant counts reconcile exactly with the "mr." counters the
//     runtime reports (attempts, machine_lost, checkpoint.saved/restored,
//     speculative_launched, machines_dead, blacklist.machines,
//     spill.runs/merge_passes);
//   * alpha-emission events are monotone per task in both time and
//     cumulative pair count;
// and — checked differentially here and against the frozen fixture in
// trace_progressive.golden — attaching a recorder never changes outputs,
// counters or the simulated timeline.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/progressive_er.h"
#include "er_golden_util.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"
#include "mapreduce/trace.h"
#include "mechanism/sorted_neighbor.h"

namespace progres {
namespace {

constexpr double kEps = 1e-9;

// ---- Shared invariant checks ----

bool IsChildKind(SpanKind kind) {
  return kind == SpanKind::kShuffle || kind == SpanKind::kCheckpointSave ||
         kind == SpanKind::kCheckpointRestore;
}

// Attempt spans on one (pid, phase, slot) lane must not overlap; backoff
// spans on one (pid, phase, task) lane must not either.
void CheckNoLaneOverlap(const std::vector<TraceSpan>& spans) {
  std::map<std::tuple<int, int, int, int>, std::vector<std::pair<double, double>>>
      lanes;
  for (const TraceSpan& span : spans) {
    if (span.kind == SpanKind::kAttempt) {
      lanes[{span.pid, static_cast<int>(span.phase), 0, span.slot}]
          .emplace_back(span.start, span.end);
    } else if (span.kind == SpanKind::kRetryBackoff) {
      lanes[{span.pid, static_cast<int>(span.phase), 1, span.task}]
          .emplace_back(span.start, span.end);
    }
  }
  for (auto& [lane, intervals] : lanes) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_LE(intervals[i - 1].second, intervals[i].first + kEps)
          << "overlap on pid=" << std::get<0>(lane)
          << " phase=" << std::get<1>(lane)
          << (std::get<2>(lane) == 0 ? " slot=" : " backoff task=")
          << std::get<3>(lane) << ": [" << intervals[i - 1].first << ", "
          << intervals[i - 1].second << ") then [" << intervals[i].first
          << ", " << intervals[i].second << ")";
    }
  }
}

// Every child span must fall inside an attempt span of the same task on the
// same (pid, phase, slot) lane.
void CheckChildNesting(const std::vector<TraceSpan>& spans) {
  for (const TraceSpan& child : spans) {
    if (!IsChildKind(child.kind)) continue;
    bool nested = false;
    for (const TraceSpan& parent : spans) {
      if (parent.kind != SpanKind::kAttempt || parent.pid != child.pid ||
          parent.phase != child.phase || parent.task != child.task ||
          parent.slot != child.slot) {
        continue;
      }
      if (child.start >= parent.start - kEps &&
          child.end <= parent.end + kEps) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << "unnested child span kind="
                        << static_cast<int>(child.kind)
                        << " task=" << child.task << " slot=" << child.slot
                        << " at [" << child.start << ", " << child.end << ")";
  }
}

struct SpanTally {
  int64_t regular = 0;       // non-speculative attempts that ran to an end
  int64_t machine_lost = 0;  // attempt occurrences killed by a machine death
  int64_t failed = 0;        // attempts ended by an injected failure
  int64_t speculative = 0;
  int64_t saves = 0;
  int64_t restores = 0;
  int64_t spill_writes = 0;
  int64_t spill_merges = 0;
  double backoff = 0.0;
};

SpanTally TallySpans(const std::vector<TraceSpan>& spans) {
  SpanTally tally;
  for (const TraceSpan& span : spans) {
    switch (span.kind) {
      case SpanKind::kAttempt:
        if (span.speculative) {
          ++tally.speculative;
        } else if (span.outcome == SpanOutcome::kMachineLost) {
          ++tally.machine_lost;
        } else {
          ++tally.regular;
          if (span.outcome == SpanOutcome::kFailed) ++tally.failed;
        }
        break;
      case SpanKind::kCheckpointSave:
        ++tally.saves;
        break;
      case SpanKind::kCheckpointRestore:
        ++tally.restores;
        break;
      case SpanKind::kRetryBackoff:
        tally.backoff += span.end - span.start;
        break;
      case SpanKind::kSpillWrite:
        ++tally.spill_writes;
        break;
      case SpanKind::kSpillMerge:
        ++tally.spill_merges;
        break;
      case SpanKind::kShuffle:
      case SpanKind::kSpillRetry:
      case SpanKind::kRunCorrupt:
      case SpanKind::kRestartRestore:
      case SpanKind::kDeadlineCancel:
      case SpanKind::kTaskQuarantine:
      case SpanKind::kBreakerTrip:
        break;
    }
  }
  return tally;
}

// Span/instant counts must reconcile exactly with the run's "mr." counters.
void CheckCounterReconciliation(const TraceRecorder& recorder,
                                const Counters& counters) {
  const SpanTally tally = TallySpans(recorder.spans());
  EXPECT_EQ(tally.regular, counters.Get("mr.attempts"));
  EXPECT_EQ(tally.failed, counters.Get("mr.failed_attempts"));
  EXPECT_EQ(tally.machine_lost, counters.Get("mr.faults.machine_lost"));
  EXPECT_EQ(tally.speculative, counters.Get("mr.speculative_launched"));
  EXPECT_EQ(tally.saves, counters.Get("mr.checkpoint.saved"));
  EXPECT_EQ(tally.restores, counters.Get("mr.checkpoint.restored"));
  EXPECT_EQ(tally.spill_writes, counters.Get("mr.spill.runs"));
  EXPECT_EQ(tally.spill_merges, counters.Get("mr.spill.merge_passes"));
  int64_t deaths = 0;
  int64_t blacklists = 0;
  for (const TraceInstant& instant : recorder.instants()) {
    if (instant.kind == InstantKind::kMachineDeath) ++deaths;
    if (instant.kind == InstantKind::kMachineBlacklisted) ++blacklists;
  }
  EXPECT_EQ(deaths, counters.Get("mr.faults.machines_dead"));
  EXPECT_EQ(blacklists, counters.Get("mr.blacklist.machines"));
  // The counter rounds the per-phase totals to whole seconds, so the exact
  // span durations must agree within one second.
  EXPECT_NEAR(tally.backoff,
              static_cast<double>(counters.Get("mr.retry.backoff_seconds")),
              1.0);
}

// Alpha emissions must advance monotonically per task, in time and pairs.
void CheckEmissionMonotonicity(const std::vector<AlphaEmission>& emissions) {
  std::map<std::pair<int, int>, const AlphaEmission*> last;  // (pid, task)
  for (const AlphaEmission& emission : emissions) {
    EXPECT_GT(emission.pairs, 0);
    const AlphaEmission*& prev = last[{emission.pid, emission.task}];
    if (prev != nullptr) {
      EXPECT_GE(emission.time, prev->time - kEps);
      EXPECT_EQ(emission.cumulative_pairs,
                prev->cumulative_pairs + emission.pairs);
    } else {
      EXPECT_EQ(emission.cumulative_pairs, emission.pairs);
    }
    prev = &emission;
  }
}

// ---- Randomized cluster/fault/checkpoint sweep on a toy job ----

constexpr int kMapTasks = 5;
constexpr int kReduceTasks = 4;

using Job = MapReduceJob<int, int, int>;

Job::Result RunToyJob(const ClusterConfig& cluster, CheckpointStore* store,
                      double alpha) {
  // Over one 4 KiB block per map task, so the forced-spill variant traces
  // real spill writes and merges.
  std::vector<int> input;
  for (int i = 0; i < 20000; ++i) input.push_back(i * 37 % 101);
  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  job.set_reduce_cleanup([](Job::ReduceContext* ctx) {
    ctx->clock().Charge(2.0);
    ctx->Emit(-1, ctx->task_id());
  });
  if (store != nullptr) job.set_checkpointing(alpha, store);
  return job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 13, record);
      },
      [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

struct RandomConfig {
  ClusterConfig cluster;
  bool checkpoint = false;
};

// Randomized cluster shape x fault plan x checkpoint on/off. Kept inside
// the survivable envelope: at most one injected machine death (and only
// with >= 3 machines, blacklisting off), generous max_attempts.
RandomConfig MakeRandomConfig(uint64_t seed) {
  Rng rng(seed);
  RandomConfig config;
  ClusterConfig& cluster = config.cluster;
  cluster.machines = static_cast<int>(rng.UniformInt(2, 4));
  cluster.map_slots_per_machine = static_cast<int>(rng.UniformInt(1, 2));
  cluster.reduce_slots_per_machine = static_cast<int>(rng.UniformInt(1, 2));
  cluster.execution_threads = 4;
  cluster.seconds_per_cost_unit = 1.0;
  if (rng.Bernoulli(0.5)) {
    for (int m = 0; m < cluster.machines; ++m) {
      cluster.machine_speed.push_back(0.5 +
                                      0.25 * static_cast<double>(
                                                 rng.UniformInt(0, 4)));
    }
  }
  cluster.fault.enabled = true;
  cluster.fault.seed = seed * 7919 + 13;
  cluster.fault.max_attempts = 10;
  cluster.fault.map_failure_prob = rng.Bernoulli(0.5) ? 0.2 : 0.0;
  cluster.fault.reduce_failure_prob = rng.Bernoulli(0.7) ? 0.35 : 0.0;
  if (rng.Bernoulli(0.5)) {
    cluster.fault.retry_backoff_seconds = 3.0;
  }
  const bool kill_machine = cluster.machines >= 3 && rng.Bernoulli(0.6);
  if (kill_machine) {
    const int victim =
        static_cast<int>(rng.UniformInt(0, cluster.machines - 1));
    cluster.fault.machine_failures = {
        {victim, 5.0 + rng.UniformDouble() * 40.0}};
  } else if (rng.Bernoulli(0.5)) {
    // Blacklisting and speculation are exercised on death-free timelines.
    cluster.fault.blacklist_failures = 2;
    cluster.speculation.enabled = true;
    cluster.speculation.min_remaining_seconds = 1.0;
  }
  config.checkpoint = rng.Bernoulli(0.5);
  testing_util::ApplyTestOverlays(&cluster);
  return config;
}

class TraceInvariantTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TraceInvariantTest, RandomizedRunSatisfiesSpanInvariants) {
  const RandomConfig config = MakeRandomConfig(GetParam());
  const double alpha = 10.0;

  // Untraced reference run of the identical configuration.
  CheckpointStore plain_store;
  const Job::Result plain =
      RunToyJob(config.cluster,
                config.checkpoint ? &plain_store : nullptr, alpha);
  ASSERT_FALSE(plain.failed) << plain.error;
  if (testing_util::ForcedSpillOverlayActive()) {
    EXPECT_GT(plain.counters.Get("mr.spill.runs"), 0);
  }

  TraceRecorder recorder;
  ClusterConfig traced_cluster = config.cluster;
  traced_cluster.trace = &recorder;
  CheckpointStore traced_store;
  const Job::Result traced =
      RunToyJob(traced_cluster, config.checkpoint ? &traced_store : nullptr,
                alpha);
  ASSERT_FALSE(traced.failed) << traced.error;

  // Differential: tracing is purely observational.
  EXPECT_EQ(traced.outputs, plain.outputs);
  EXPECT_EQ(traced.counters.values(), plain.counters.values());
  EXPECT_EQ(traced.timing.end, plain.timing.end);
  EXPECT_EQ(traced.timing.map_end, plain.timing.map_end);

  const std::vector<TraceSpan> spans = recorder.spans();
  EXPECT_FALSE(spans.empty());
  CheckNoLaneOverlap(spans);
  CheckChildNesting(spans);
  CheckCounterReconciliation(recorder, traced.counters);

  // Attempt spans must carry a machine id consistent with their slot.
  const int map_spm = config.cluster.map_slots_per_machine;
  const int reduce_spm = config.cluster.reduce_slots_per_machine;
  for (const TraceSpan& span : spans) {
    if (span.kind != SpanKind::kAttempt) continue;
    const int spm = span.phase == TaskPhase::kMap ? map_spm : reduce_spm;
    EXPECT_EQ(span.machine, span.slot / spm);
    EXPECT_LT(span.machine, config.cluster.machines);
    EXPECT_LE(span.start, span.end + kEps);
  }

  // Exactly one shuffle mark per reduce task, on its winning attempt.
  int64_t shuffles = 0;
  for (const TraceSpan& span : spans) {
    if (span.kind == SpanKind::kShuffle) ++shuffles;
  }
  EXPECT_EQ(shuffles, kReduceTasks);

  // The exports must render without tripping assertions or loops.
  EXPECT_FALSE(recorder.ToChromeJson().empty());
  EXPECT_FALSE(recorder.ToSlotTimeline().empty());
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, TraceInvariantTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                         10u));

// ---- End-to-end: a fault-injected progressive run ----

TEST(TraceErDriverTest, FaultInjectedRunShowsKillsDeathsAndEmissions) {
  const testing_util::GoldenWorkload w = testing_util::MakeGoldenWorkload();
  const SortedNeighborMechanism sn;
  const ProbabilityModel prob =
      ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking);

  // Fault-free dry run, itself traced: its timeline pins where machine 1 is
  // guaranteed to be mid-attempt during resolution. With no injected task
  // failures the faulty run replays the identical schedule up to the death,
  // so a death placed inside a clean attempt must kill it.
  TraceRecorder clean_recorder;
  ProgressiveErOptions clean_options;
  clean_options.cluster = testing_util::GoldenCluster();
  testing_util::ApplyTestOverlays(&clean_options.cluster);
  clean_options.cluster.trace = &clean_recorder;
  const ProgressiveEr clean_er(w.blocking, w.match, sn, prob, clean_options);
  const ErRunResult clean = clean_er.Run(w.data.dataset);
  ASSERT_FALSE(clean.failed) << clean.error;
  // The forced-spill variant of this suite traces spill marks only if this
  // ER cluster really spills under it.
  if (testing_util::ForcedSpillOverlayActive()) {
    EXPECT_GT(clean.counters.Get("mr.spill.runs"), 0);
  }

  const int clean_resolution_pid = clean_recorder.PidOf("resolution job");
  ASSERT_NE(clean_resolution_pid, -1);
  double death_time = -1.0;
  double longest = 0.0;
  for (const TraceSpan& span : clean_recorder.spans()) {
    if (span.kind != SpanKind::kAttempt || span.pid != clean_resolution_pid ||
        span.phase != TaskPhase::kReduce || span.machine != 1) {
      continue;
    }
    if (span.end - span.start > longest) {
      longest = span.end - span.start;
      death_time = 0.5 * (span.start + span.end);
    }
  }
  ASSERT_GT(longest, 0.0) << "no reduce attempt ran on machine 1";

  TraceRecorder recorder;
  ProgressiveErOptions options;
  options.cluster = testing_util::GoldenCluster();
  options.cluster.trace = &recorder;
  options.cluster.fault.enabled = true;
  options.cluster.fault.seed = 99;
  options.cluster.fault.max_attempts = 10;
  options.cluster.fault.retry_backoff_seconds = 1.0;
  options.cluster.fault.machine_failures = {{1, death_time}};
  testing_util::ApplyTestOverlays(&options.cluster);
  options.checkpoint_recovery = true;
  const ProgressiveEr er(w.blocking, w.match, sn, prob, options);
  const ErRunResult result = er.Run(w.data.dataset);
  ASSERT_FALSE(result.failed) << result.error;

  // Exactly-once data plane: faults never change the resolved pairs.
  EXPECT_EQ(result.duplicates, clean.duplicates);

  // The pipeline's stages are registered as trace processes.
  EXPECT_GE(recorder.process_names().size(), 2u);
  EXPECT_NE(recorder.PidOf("statistics job"), -1);
  EXPECT_NE(recorder.PidOf("resolution job"), -1);

  // The acceptance criterion: the trace visibly contains killed-attempt
  // spans and machine-death instants.
  ASSERT_GT(result.counters.Get("mr.faults.machine_lost"), 0)
      << "machine death did not kill any in-flight attempt; trace cannot "
         "show kills";
  const std::vector<TraceSpan> spans = recorder.spans();
  CheckNoLaneOverlap(spans);
  CheckChildNesting(spans);

  // ErRunResult::counters reports the resolution stage only, so reconcile
  // the spans recorded under that stage's pid against it.
  const int resolution_pid = recorder.PidOf("resolution job");
  std::vector<TraceSpan> resolution_spans;
  for (const TraceSpan& span : spans) {
    if (span.pid == resolution_pid) resolution_spans.push_back(span);
  }
  const SpanTally tally = TallySpans(resolution_spans);
  EXPECT_EQ(tally.regular, result.counters.Get("mr.attempts"));
  EXPECT_EQ(tally.machine_lost,
            result.counters.Get("mr.faults.machine_lost"));
  EXPECT_GT(tally.machine_lost, 0);
  EXPECT_EQ(tally.saves, result.counters.Get("mr.checkpoint.saved"));
  EXPECT_EQ(tally.restores, result.counters.Get("mr.checkpoint.restored"));
  int64_t resolution_deaths = 0;
  for (const TraceInstant& instant : recorder.instants()) {
    if (instant.kind == InstantKind::kMachineDeath &&
        instant.pid == resolution_pid) {
      ++resolution_deaths;
    }
  }
  EXPECT_EQ(resolution_deaths,
            result.counters.Get("mr.faults.machines_dead"));
  EXPECT_GT(resolution_deaths, 0);

  // One alpha-emission event per incremental-output chunk, monotone per
  // task in time and cumulative pairs.
  const std::vector<AlphaEmission> emissions = recorder.emissions();
  EXPECT_EQ(emissions.size(), result.chunks.size());
  CheckEmissionMonotonicity(emissions);
  int64_t emitted = 0;
  for (const AlphaEmission& emission : emissions) emitted += emission.pairs;
  EXPECT_EQ(emitted, static_cast<int64_t>(result.duplicates.size()));
}

// ---- Golden trace fixture ----

// The traced fixed-seed progressive run must reproduce the frozen Chrome
// trace JSON byte for byte; schedule regressions surface as diffs here.
// Regenerate with `make_er_golden tests/golden` only for intentional
// schedule or trace-format changes.
TEST(TraceGoldenTest, ProgressiveTraceMatchesFrozenFixture) {
  if (testing_util::ForcedSpillOverlayActive()) {
    GTEST_SKIP() << "forced spilling adds spill spans; the fixture freezes "
                    "the no-spill trace";
  }
  std::ifstream in(std::string(PROGRES_GOLDEN_DIR) +
                       "/trace_progressive.golden",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing trace_progressive.golden";
  std::stringstream frozen;
  frozen << in.rdbuf();
  EXPECT_EQ(testing_util::GoldenTraceJson(), frozen.str());
}

}  // namespace
}  // namespace progres
