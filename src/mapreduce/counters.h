#ifndef PROGRES_MAPREDUCE_COUNTERS_H_
#define PROGRES_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>

namespace progres {

// Hadoop-style named counters. Each task owns a private Counters instance
// (no synchronization needed); the runtime merges them into the job-wide
// totals after the task finishes.
//
// The "mr." name prefix is reserved for the runtime's own bookkeeping and
// must not be used by user map/reduce functions:
//   mr.attempts             task attempts executed (>= task count)
//   mr.failed_attempts      non-winning attempts (crashes, hangs, poison)
//   mr.speculative_launched backup copies launched by speculative execution
//   mr.speculative_wins     backup copies that beat the original attempt
//   mr.shuffle.records      pairs crossing the shuffle
//   mr.shuffle.bytes        their KvCodec-encoded volume
//   mr.shuffle.checksum_errors  partition fetches failing their CRC32
//   mr.shuffle.refetches    re-fetches triggered by checksum errors
//   mr.shuffle.map_reruns   map re-runs after max_fetch_retries corrupt
//                           copies of the same partition
//   mr.spill.runs           sorted spill runs written by winning map
//                           attempts (shuffle_budget.max_bytes > 0 only)
//   mr.spill.records        records in those runs
//   mr.spill.bytes          encoded bytes written to spill files
//   mr.spill.merge_passes   reduce tasks whose winning gather k-way merged
//                           at least one spill run
//   mr.faults.machine_lost  attempts killed by a machine failure
//   mr.faults.machines_dead machines that died during the job's timeline
//   mr.faults.task_timeouts hung attempts killed by the heartbeat timeout
//   mr.blacklist.machines   machines blacklisted for repeated failures
//   mr.retry.backoff_seconds  simulated retry-backoff delay (rounded)
//   mr.recovery.replayed_pairs  reduce input values re-processed by retries
//   mr.recovery.replayed_cost   cost units re-executed after machine kills
//   mr.checkpoint.saved     reduce-task snapshots saved (checkpointing only)
//   mr.checkpoint.restored  snapshots restored by re-attempts (ditto)
//   mr.skipped.records      poison records quarantined by skip-bad-records
//   mr.disk.write_errors    spill write tries that failed (injected + real)
//   mr.disk.retries         spill writes retried after a transient error
//                           (reconciles 1:1 with kSpillRetry trace spans)
//   mr.disk.retry_backoff_seconds  modeled spill-retry backoff (rounded)
//   mr.disk.enospc          planned full-disk discoveries on the primary
//                           spill dir
//   mr.disk.torn_writes     spill runs truncated after an apparent success
//   mr.disk.corrupt_runs    spill runs failing CRC validation at the map
//                           barrier (reconciles 1:1 with kRunCorrupt spans)
//   mr.disk.map_reruns      map re-runs triggered by corrupt spill runs
//   mr.disk.dir_failovers   primary -> fallback spill-dir switches
//   mr.restart.restored_tasks  reduce tasks resumed from checkpoints
//                           persisted by an earlier process (reconciles 1:1
//                           with kRestartRestore spans)
//   mr.restart.corrupt_checkpoints  persisted snapshots failing validation
//                           on load (ignored; the task replays instead)
//   mr.supervisor.deadline_cancels  tasks cut or cancelled at the job
//                           deadline (reconciles 1:1 with kDeadlineCancel
//                           spans; job supervision only, see supervisor.h)
//   mr.supervisor.quarantined_tasks  permanently failing tasks quarantined
//                           under allow_degraded (1:1 with kTaskQuarantine)
//   mr.supervisor.breaker_trips  fault-domain circuit breakers tripped
//                           (1:1 with kBreakerTrip spans)
//   mr.supervisor.retries_denied  retries the budget ledger refused to fund
//   mr.supervisor.retry_spend.task     ledger spend: failed task attempts
//   mr.supervisor.retry_spend.machine  ledger spend: machine-lost attempts
//   mr.supervisor.retry_spend.disk     ledger spend: spill retries + map
//                           re-runs after corrupt spill runs
//   mr.supervisor.retry_spend.data     ledger spend: shuffle re-fetches +
//                           map re-runs after corrupt fetches
// Counters that would be zero stay absent, so a fault-free job's counter
// set is unchanged by these features. User counters merge independently of
// the reserved ones: the runtime only ever increments "mr." names, and a
// job's non-"mr." counters are byte-identical to a fault-free run.
class Counters {
 public:
  // Adds `delta` to counter `name`, creating it at zero if absent.
  void Increment(const std::string& name, int64_t delta = 1) {
    values_[name] += delta;
  }

  // Current value of `name` (0 if never incremented).
  int64_t Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  // Merges another task's counters into this one.
  void MergeFrom(const Counters& other) {
    for (const auto& [name, value] : other.values_) values_[name] += value;
  }

  // All counters, sorted by name (std::map keeps them ordered).
  const std::map<std::string, int64_t>& values() const { return values_; }

 private:
  std::map<std::string, int64_t> values_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_COUNTERS_H_
