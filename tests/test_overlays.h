#ifndef PROGRES_TESTS_TEST_OVERLAYS_H_
#define PROGRES_TESTS_TEST_OVERLAYS_H_

// Environment overlays of the ctest variant suites (tests/CMakeLists.txt).
// The runtime reads no environment: a variant re-runs an unmodified suite
// with a variable set, and the suite's cluster factories pass their configs
// through ApplyTestOverlays.
//
//   PROGRES_FORCE_SPILL=1  gives every config without a shuffle budget the
//                          tiny one below, so all map output goes through
//                          spill runs and the reduce-side k-way merge;
//   PROGRES_DISK_FAULTS=1  overlays small write-error / torn-write /
//                          corrupt-run probabilities on every spilling
//                          config, so the storage fault domain's retry and
//                          re-run recovery runs everywhere.
//
// Outputs are byte-identical either way by design. Forced spilling only
// adds "mr.spill.*" bookkeeping; disk faults add "mr.disk.*" counters and,
// through barrier re-runs, shift the simulated timeline — so the frozen
// fixture comparisons skip themselves under DiskFaultOverlayActive().

#include <cstdint>
#include <cstdlib>
#include <string>

#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"

namespace progres {
namespace testing_util {

// One byte of headroom and 4 KiB blocks (the runtime's floor): every map
// task spills, several runs each on any non-trivial input.
inline ShuffleBudget TinySpillBudget() {
  ShuffleBudget budget;
  budget.max_bytes = 1;
  budget.block_bytes = 4096;
  return budget;
}

inline bool ForcedSpillOverlayActive() {
  return std::getenv("PROGRES_FORCE_SPILL") != nullptr;
}

inline bool DiskFaultOverlayActive() {
  return std::getenv("PROGRES_DISK_FAULTS") != nullptr;
}

// Applies the active overlays to `cluster`. Forced spilling replaces only
// a disabled budget; each disk-fault probability is overlaid only where
// the config leaves it at zero. Enabling the fault plan with every other
// family at zero probability changes nothing else.
inline void ApplyTestOverlays(ClusterConfig* cluster) {
  ShuffleBudget& budget = cluster->shuffle_budget;
  if (budget.max_bytes == 0 && ForcedSpillOverlayActive()) {
    const ShuffleBudget tiny = TinySpillBudget();
    budget.max_bytes = tiny.max_bytes;
    budget.block_bytes = tiny.block_bytes;
  }
  if (budget.max_bytes == 0 || !DiskFaultOverlayActive()) return;
  FaultConfig& fault = cluster->fault;
  fault.enabled = true;
  if (fault.spill_write_error_prob == 0.0) fault.spill_write_error_prob = 0.02;
  if (fault.spill_torn_write_prob == 0.0) fault.spill_torn_write_prob = 0.01;
  if (fault.spill_corrupt_prob == 0.0) fault.spill_corrupt_prob = 0.01;
}

// Sum of a job's "mr.disk.*" counters: non-zero once any storage fault was
// injected and recovered from.
inline int64_t DiskFaultTally(const Counters& counters) {
  int64_t total = 0;
  for (const auto& [name, value] : counters.values()) {
    if (name.rfind("mr.disk.", 0) == 0) total += value;
  }
  return total;
}

}  // namespace testing_util
}  // namespace progres

#endif  // PROGRES_TESTS_TEST_OVERLAYS_H_
