#ifndef PROGRES_CORE_STATS_JOB_H_
#define PROGRES_CORE_STATS_JOB_H_

#include <string>
#include <vector>

#include "blocking/forest.h"
#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"
#include "model/dataset.h"

namespace progres {

// Result of the first MR job (Sec. III-B): the per-family forests with
// block sizes, child keys, and uncovered-pair counts. Structurally identical
// to BuildForests + ComputeUncoveredPairs (asserted by integration tests),
// but computed with a real map/shuffle/reduce pass whose cost feeds the
// simulated timeline (this is the preprocessing overhead visible in
// Fig. 10).
struct StatsJobOutput {
  std::vector<Forest> forests;
  JobTiming timing;
  // Named MR counters of the job, including the runtime's "mr." ones.
  Counters counters;
  // Set when the job exhausted its fault-injection max_attempts budget;
  // `forests` is empty in that case.
  bool failed = false;
  std::string error;
};

// Runs the progressive-blocking + statistics job. The map phase annotates
// each entity with its blocking key values and routes one record per family
// to the reduce task owning the entity's root block; each reduce call
// reconstructs one tree, counting block sizes and overlap tuples.
StatsJobOutput RunStatisticsJob(const Dataset& dataset,
                                const BlockingConfig& config,
                                const ClusterConfig& cluster,
                                int num_map_tasks, int num_reduce_tasks,
                                double submit_time = 0.0);

}  // namespace progres

#endif  // PROGRES_CORE_STATS_JOB_H_
