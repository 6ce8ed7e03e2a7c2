// Chaos soak: every fault family at once — task-attempt crashes, hangs
// killed by the heartbeat timeout, a machine death, shuffle checksum
// corruption and poison records under skip-bad-records — across many fault
// seeds, against one clean run. The acceptance bar: resolved pairs are
// byte-identical to the fault-free run except for pairs touching
// quarantined records, and every new "mr." fault counter reconciles
// exactly with the recorded trace.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "mapreduce/fault.h"
#include "mapreduce/trace.h"
#include "mechanism/sorted_neighbor.h"
#include "model/entity.h"
#include "mr_test_util.h"
#include "test_overlays.h"

namespace progres {
namespace {

// The three poison records, one per region of the input. Fixed across
// seeds: the quarantine set — and with it the data plane — must not depend
// on the fault seed.
const std::vector<int64_t> kPoisonRecords = {7, 450, 901};

struct ChaosWorld {
  LabeledDataset data;
  LabeledDataset train;
  BlockingConfig blocking;
  MatchFunction match;
  ProbabilityModel prob;
  SortedNeighborMechanism sn;
  ProgressiveErOptions base;
  ErRunResult clean;
  // Quarantined entity ids implied by kPoisonRecords, sorted.
  std::vector<EntityId> poison_ids;
  // The clean run's duplicates minus every pair touching a poison id — what
  // a run that quarantines kPoisonRecords must resolve, exactly.
  std::vector<PairKey> expected_pairs;
};

const ChaosWorld& World() {
  static const ChaosWorld* world = [] {
    auto* w = new ChaosWorld{
        [] {
          PublicationConfig gen;
          gen.num_entities = 1200;
          gen.seed = 23;
          return GeneratePublications(gen);
        }(),
        [] {
          PublicationConfig gen;
          gen.num_entities = 400;
          gen.seed = 24;
          return GeneratePublications(gen);
        }(),
        BlockingConfig(
            {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3}, -1}}),
        MatchFunction({{kPubTitle, AttributeSimilarity::kEditDistance, 0.7, 0},
                       {kPubVenue, AttributeSimilarity::kEditDistance, 0.3, 0}},
                      0.75),
        ProbabilityModel(),
        SortedNeighborMechanism(),
        ProgressiveErOptions(),
        ErRunResult(),
        {},
        {}};
    w->prob = ProbabilityModel::Train(w->train.dataset, w->train.truth,
                                      w->blocking);
    w->base.cluster.machines = 3;
    w->base.cluster.execution_threads = 4;
    w->base.cluster.seconds_per_cost_unit = 1e-3;
    testing_util::ApplyTestOverlays(&w->base.cluster);
    w->base.alpha = 500.0;
    w->clean = ProgressiveEr(w->blocking, w->match, w->sn, w->prob, w->base)
                   .Run(w->data.dataset);
    for (const int64_t r : kPoisonRecords) {
      w->poison_ids.push_back(
          w->data.dataset.entity(static_cast<EntityId>(r)).id);
    }
    std::sort(w->poison_ids.begin(), w->poison_ids.end());
    for (const PairKey pair : w->clean.duplicates) {
      const auto [a, b] = PairKeyIds(pair);
      if (!std::binary_search(w->poison_ids.begin(), w->poison_ids.end(), a) &&
          !std::binary_search(w->poison_ids.begin(), w->poison_ids.end(), b)) {
        w->expected_pairs.push_back(pair);
      }
    }
    return w;
  }();
  return *world;
}

// All fault families at once, derived from one seed — including the
// storage domain: transient spill-write errors, torn writes, run
// corruption and planned ENOSPC on the primary spill dir.
FaultConfig ChaosFault(uint64_t seed, double machine_death_time) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = seed;
  fault.max_attempts = 12;
  fault.map_failure_prob = 0.05;
  fault.reduce_failure_prob = 0.1;
  fault.map_hang_prob = 0.05;
  fault.reduce_hang_prob = 0.1;
  fault.task_timeout_seconds = 2.0;
  fault.retry_backoff_seconds = 0.5;
  fault.machine_failures = {{1, machine_death_time}};
  fault.shuffle_corrupt_prob = 0.05;
  fault.max_fetch_retries = 1;
  fault.poison_records = kPoisonRecords;
  fault.skip_bad_records = true;
  fault.spill_write_error_prob = 0.1;
  fault.spill_torn_write_prob = 0.05;
  fault.spill_corrupt_prob = 0.05;
  fault.spill_enospc_prob = 0.05;
  fault.spill_retry_backoff_seconds = 0.1;
  return fault;
}

// Spills every map output through run files so the storage faults have a
// surface to hit; ENOSPC discoveries fail over to the fallback dir.
ShuffleBudget ChaosBudget() {
  const std::filesystem::path fallback =
      std::filesystem::temp_directory_path() / "progres_chaos_fallback";
  std::filesystem::create_directories(fallback);
  ShuffleBudget budget = testing_util::TinySpillBudget();
  budget.fallback_spill_dir = fallback.string();
  return budget;
}

// The *_disk_faults variant of this suite runs its clean reference out of
// core, with storage faults recovered, only if the base config really
// spills and draws disk faults under the overlays. (The fault seeds below
// inject disk faults explicitly.)
TEST(TestOverlayTest, BaseConfigSpillsUnderOverlays) {
  if (!testing_util::ForcedSpillOverlayActive()) {
    GTEST_SKIP() << "PROGRES_FORCE_SPILL not set";
  }
  const ChaosWorld& w = World();
  ASSERT_FALSE(w.clean.failed) << w.clean.error;
  EXPECT_GT(w.clean.counters.Get("mr.spill.runs"), 0);
  if (testing_util::DiskFaultOverlayActive()) {
    EXPECT_GT(testing_util::DiskFaultTally(w.clean.counters), 0);
  }
}

TEST(ChaosTest, TenSeedsResolveIdenticalNonQuarantinedPairs) {
  const ChaosWorld& w = World();
  ASSERT_FALSE(w.clean.failed) << w.clean.error;
  ASSERT_FALSE(w.expected_pairs.empty());
  ASSERT_LT(w.expected_pairs.size(), w.clean.duplicates.size())
      << "poison records must actually remove some pairs";

  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    TraceRecorder trace;
    ProgressiveErOptions options = w.base;
    options.cluster.fault = ChaosFault(seed, w.clean.total_time * 0.4);
    options.cluster.shuffle_budget = ChaosBudget();
    options.cluster.trace = &trace;
    options.checkpoint_recovery = true;
    const ErRunResult run =
        ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
            .Run(w.data.dataset);
    ASSERT_FALSE(run.failed) << run.error;

    // The quarantine set is exactly the poison set, every seed.
    EXPECT_EQ(run.quarantined_ids, w.poison_ids);
    // Byte-identical resolved pairs, minus only the quarantined records'.
    EXPECT_EQ(run.duplicates, w.expected_pairs);
    EXPECT_GE(run.total_time, w.clean.total_time);

    // Counter/trace reconciliation: every fault the counters claim is a
    // fault the trace shows, one for one. ErRunResult::counters reports the
    // resolution job only, so restrict the tally to its trace process (the
    // statistics job's faults live under its own pid).
    const int pid = trace.PidOf("resolution job");
    ASSERT_GE(pid, 0);
    int64_t timed_out_spans = 0;
    int64_t machine_lost_spans = 0;
    for (const TraceSpan& span : trace.spans()) {
      if (span.pid != pid || span.kind != SpanKind::kAttempt) continue;
      if (span.outcome == SpanOutcome::kTimedOut) ++timed_out_spans;
      if (span.outcome == SpanOutcome::kMachineLost) ++machine_lost_spans;
    }
    int64_t spill_retry_spans = 0;
    int64_t run_corrupt_spans = 0;
    for (const TraceSpan& span : trace.spans()) {
      if (span.pid != pid) continue;
      if (span.kind == SpanKind::kSpillRetry) ++spill_retry_spans;
      if (span.kind == SpanKind::kRunCorrupt) ++run_corrupt_spans;
    }
    int64_t corruption_instants = 0;
    int64_t quarantine_instants = 0;
    for (const TraceInstant& instant : trace.instants()) {
      if (instant.pid != pid) continue;
      if (instant.kind == InstantKind::kShuffleCorruption) {
        ++corruption_instants;
        EXPECT_GE(instant.task, 0);
        EXPECT_GE(instant.peer_task, 0);
      }
      if (instant.kind == InstantKind::kRecordQuarantined) {
        ++quarantine_instants;
        EXPECT_GE(instant.record, 0);
      }
    }
    EXPECT_EQ(timed_out_spans, run.counters.Get("mr.faults.task_timeouts"));
    EXPECT_EQ(machine_lost_spans, run.counters.Get("mr.faults.machine_lost"));
    EXPECT_EQ(corruption_instants,
              run.counters.Get("mr.shuffle.checksum_errors"));
    EXPECT_EQ(quarantine_instants, run.counters.Get("mr.skipped.records"));
    // Every checksum error was re-fetched exactly once.
    EXPECT_EQ(run.counters.Get("mr.shuffle.refetches"),
              run.counters.Get("mr.shuffle.checksum_errors"));
    // Storage-domain ledger: one kSpillRetry span per counted spill retry,
    // one kRunCorrupt span per run failing CRC validation at the barrier.
    EXPECT_EQ(spill_retry_spans, run.counters.Get("mr.disk.retries"));
    EXPECT_EQ(run_corrupt_spans, run.counters.Get("mr.disk.corrupt_runs"));
    EXPECT_EQ(quarantine_instants,
              static_cast<int64_t>(kPoisonRecords.size()));
  }
}

// At least one seed of the soak exercises every family (seed-checked once:
// the sum over the ten fixed seeds is deterministic).
TEST(ChaosTest, SoakCoversEveryFaultFamily) {
  const ChaosWorld& w = World();
  int64_t timeouts = 0, errors = 0, lost = 0, failed = 0;
  int64_t disk_retries = 0, corrupt_runs = 0, enospc = 0, failovers = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ProgressiveErOptions options = w.base;
    options.cluster.fault = ChaosFault(seed, w.clean.total_time * 0.4);
    options.cluster.shuffle_budget = ChaosBudget();
    const ErRunResult run =
        ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
            .Run(w.data.dataset);
    ASSERT_FALSE(run.failed) << run.error;
    timeouts += run.counters.Get("mr.faults.task_timeouts");
    errors += run.counters.Get("mr.shuffle.checksum_errors");
    lost += run.counters.Get("mr.faults.machine_lost");
    failed += run.counters.Get("mr.failed_attempts");
    disk_retries += run.counters.Get("mr.disk.retries");
    corrupt_runs += run.counters.Get("mr.disk.corrupt_runs");
    enospc += run.counters.Get("mr.disk.enospc");
    failovers += run.counters.Get("mr.disk.dir_failovers");
  }
  EXPECT_GE(timeouts, 1);
  EXPECT_GE(errors, 1);
  EXPECT_GE(lost, 1);
  // Crashes + hangs + poison crashes all feed mr.failed_attempts.
  EXPECT_GE(failed, 10);
  // The storage domain gets exercised too: transient write errors retried,
  // corrupt runs caught at the barrier, ENOSPC failed over to the fallback.
  EXPECT_GE(disk_retries, 1);
  EXPECT_GE(corrupt_runs, 1);
  EXPECT_GE(enospc, 1);
  EXPECT_GE(failovers, 1);
}

// The pair-level schedulers under fire: BlockSplit and PairRange ship
// sub-block match tasks through the same faulty fabric — machine loss,
// crashes, hangs, shuffle corruption, storage faults, poison records — and
// must still resolve exactly the clean run's non-quarantined pairs, with
// the fault counters reconciling one-for-one against the trace. This pins
// the multi-emit map side (one block shipped to several reduce tasks)
// against attempt re-runs: a replayed task must re-receive every unit.
TEST(ChaosTest, PairLevelSchedulersSurviveFaultsWithIdenticalPairs) {
  const ChaosWorld& w = World();
  ASSERT_FALSE(w.clean.failed) << w.clean.error;

  for (const TreeScheduler scheduler :
       {TreeScheduler::kBlockSplit, TreeScheduler::kPairRange}) {
    for (uint64_t seed = 11; seed <= 13; ++seed) {
      SCOPED_TRACE("scheduler " +
                   std::string(scheduler == TreeScheduler::kBlockSplit
                                   ? "blocksplit"
                                   : "pairrange") +
                   " fault seed " + std::to_string(seed));
      TraceRecorder trace;
      ProgressiveErOptions options = w.base;
      options.scheduler = scheduler;
      options.cluster.fault = ChaosFault(seed, w.clean.total_time * 0.4);
      options.cluster.shuffle_budget = ChaosBudget();
      options.cluster.trace = &trace;
      const ErRunResult run =
          ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
              .Run(w.data.dataset);
      ASSERT_FALSE(run.failed) << run.error;

      EXPECT_EQ(run.quarantined_ids, w.poison_ids);
      EXPECT_EQ(run.duplicates, w.expected_pairs);

      const int pid = trace.PidOf("resolution job");
      ASSERT_GE(pid, 0);
      int64_t timed_out_spans = 0;
      int64_t machine_lost_spans = 0;
      int64_t spill_retry_spans = 0;
      int64_t run_corrupt_spans = 0;
      for (const TraceSpan& span : trace.spans()) {
        if (span.pid != pid) continue;
        if (span.kind == SpanKind::kAttempt) {
          if (span.outcome == SpanOutcome::kTimedOut) ++timed_out_spans;
          if (span.outcome == SpanOutcome::kMachineLost) ++machine_lost_spans;
        }
        if (span.kind == SpanKind::kSpillRetry) ++spill_retry_spans;
        if (span.kind == SpanKind::kRunCorrupt) ++run_corrupt_spans;
      }
      int64_t corruption_instants = 0;
      int64_t quarantine_instants = 0;
      for (const TraceInstant& instant : trace.instants()) {
        if (instant.pid != pid) continue;
        if (instant.kind == InstantKind::kShuffleCorruption) {
          ++corruption_instants;
        }
        if (instant.kind == InstantKind::kRecordQuarantined) {
          ++quarantine_instants;
        }
      }
      EXPECT_EQ(timed_out_spans, run.counters.Get("mr.faults.task_timeouts"));
      EXPECT_EQ(machine_lost_spans,
                run.counters.Get("mr.faults.machine_lost"));
      EXPECT_EQ(corruption_instants,
                run.counters.Get("mr.shuffle.checksum_errors"));
      EXPECT_EQ(quarantine_instants, run.counters.Get("mr.skipped.records"));
      EXPECT_EQ(spill_retry_spans, run.counters.Get("mr.disk.retries"));
      EXPECT_EQ(run_corrupt_spans, run.counters.Get("mr.disk.corrupt_runs"));
    }
  }
}

// The tentpole's checkpoint interaction: a reduce attempt killed by the
// heartbeat timeout resumes from its last alpha-boundary checkpoint, so the
// run replays strictly fewer pairs than the same run without checkpointed
// recovery — with byte-identical resolved pairs.
TEST(ChaosTest, CheckpointRecoveryReplaysFewerPairsAfterReduceHang) {
  const ChaosWorld& w = World();

  ProgressiveErOptions options = w.base;
  options.cluster.fault.enabled = true;
  options.cluster.fault.task_timeout_seconds = 2.0;
  // Reduce task 0 hangs at 90% of its first attempt — well past several
  // alpha boundaries.
  options.cluster.fault.injected_hangs = {{TaskPhase::kReduce, 0, 0, 0.9}};

  const ErRunResult scratch =
      ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
          .Run(w.data.dataset);
  ASSERT_FALSE(scratch.failed) << scratch.error;

  options.checkpoint_recovery = true;
  const ErRunResult resumed =
      ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
          .Run(w.data.dataset);
  ASSERT_FALSE(resumed.failed) << resumed.error;

  EXPECT_EQ(scratch.duplicates, w.clean.duplicates);
  EXPECT_EQ(resumed.duplicates, w.clean.duplicates);
  EXPECT_GE(scratch.counters.Get("mr.faults.task_timeouts"), 1);
  EXPECT_GE(resumed.counters.Get("mr.faults.task_timeouts"), 1);
  ASSERT_GT(scratch.counters.Get("mr.recovery.replayed_pairs"), 0);
  EXPECT_GT(resumed.counters.Get("mr.checkpoint.restored"), 0);
  EXPECT_LT(resumed.counters.Get("mr.recovery.replayed_pairs"),
            scratch.counters.Get("mr.recovery.replayed_pairs"));
}

// Deadline sweep in the chaos matrix: the same chaotic world — crashes,
// hangs, a machine death, shuffle corruption, storage faults, poison
// records — run degraded under successively looser job deadlines. Coverage
// and the resolved-pair count must grow monotonically with the deadline,
// every resolved pair must come from the clean run (degradation truncates,
// it never invents), and the supervisor counters must reconcile one-for-one
// with the kDeadlineCancel / kTaskQuarantine spans of the resolution job.
TEST(ChaosTest, DeadlineSweepDegradesMonotonically) {
  const ChaosWorld& w = World();
  ASSERT_FALSE(w.clean.failed) << w.clean.error;

  std::vector<PairKey> clean_sorted = w.clean.duplicates;
  std::sort(clean_sorted.begin(), clean_sorted.end());

  double prev_covered = -1.0;
  size_t prev_pairs = 0;
  for (const double fraction : {0.25, 0.5, 0.75}) {
    SCOPED_TRACE("deadline fraction " + std::to_string(fraction));
    TraceRecorder trace;
    ProgressiveErOptions options = w.base;
    options.cluster.fault = ChaosFault(3, w.clean.total_time * 0.4);
    options.cluster.shuffle_budget = ChaosBudget();
    options.cluster.trace = &trace;
    options.cluster.control.deadline_seconds = w.clean.total_time * fraction;
    options.cluster.control.allow_degraded = true;
    const ErRunResult run =
        ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
            .Run(w.data.dataset);
    ASSERT_FALSE(run.failed) << run.error;
    EXPECT_TRUE(run.completeness.degraded);
    EXPECT_LT(run.completeness.covered_fraction, 1.0);

    for (const PairKey pair : run.duplicates) {
      EXPECT_TRUE(std::binary_search(clean_sorted.begin(), clean_sorted.end(),
                                     pair));
    }
    // More deadline, more coverage, more pairs.
    EXPECT_GE(run.completeness.covered_fraction, prev_covered);
    EXPECT_GE(run.duplicates.size(), prev_pairs);
    prev_covered = run.completeness.covered_fraction;
    prev_pairs = run.duplicates.size();

    // Supervisor-ledger reconciliation, restricted to the resolution job's
    // trace process like the fault-counter checks above.
    const int pid = trace.PidOf("resolution job");
    ASSERT_GE(pid, 0);
    int64_t cancel_spans = 0;
    int64_t quarantine_spans = 0;
    for (const TraceSpan& span : trace.spans()) {
      if (span.pid != pid) continue;
      if (span.kind == SpanKind::kDeadlineCancel) ++cancel_spans;
      if (span.kind == SpanKind::kTaskQuarantine) ++quarantine_spans;
    }
    EXPECT_EQ(cancel_spans, run.counters.Get("mr.supervisor.deadline_cancels"));
    EXPECT_EQ(quarantine_spans,
              run.counters.Get("mr.supervisor.quarantined_tasks"));
    EXPECT_GE(cancel_spans, 1);
  }
}

}  // namespace
}  // namespace progres
