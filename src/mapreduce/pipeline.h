#ifndef PROGRES_MAPREDUCE_PIPELINE_H_
#define PROGRES_MAPREDUCE_PIPELINE_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"

namespace progres {

// Outcome of one pipeline stage. MapReduce stages carry the job's timing
// and counters; computation stages (driver-side work charged as clock
// time, e.g. schedule generation) carry only an end time.
struct StageResult {
  bool failed = false;
  std::string error;
  // Simulated completion time (seconds); the next stage is submitted here.
  double end_time = 0.0;
  // Measured wall-clock duration of the stage (seconds). A real
  // measurement, never on the simulated clock — reported alongside it,
  // never mixed into end_time.
  double wall_seconds = 0.0;
  Counters counters;
  JobTiming timing;
};

// Adapts a MapReduceJob<...>::Result into a StageResult. `error_prefix`
// labels the stage's failure ("basic job" -> "basic job: <runtime error>");
// empty keeps the error verbatim (for errors already labelled upstream).
template <typename JobResult>
StageResult StageResultFromJob(JobResult&& result,
                               const std::string& error_prefix) {
  StageResult stage;
  stage.failed = result.failed;
  stage.error = error_prefix.empty() || result.error.empty()
                    ? result.error
                    : error_prefix + ": " + result.error;
  stage.end_time = result.timing.end;
  stage.wall_seconds = result.timing.wall.total_seconds;
  stage.counters = std::move(result.counters);
  stage.timing = std::move(result.timing);
  return stage;
}

// One executed stage of a pipeline run.
struct StageReport {
  std::string name;
  double start = 0.0;  // simulated submit time of this stage
  StageResult result;
};

// Outcome of a Pipeline run.
struct PipelineResult {
  // Counters merged across every executed stage, including a failing one
  // (so the runtime's "mr." bookkeeping survives failures). The data-plane
  // fault tallies ("mr.disk.*", "mr.restart.*") merge like any other "mr."
  // counter: a pipeline whose statistics and resolution jobs both hit
  // injected disk faults reports their sum here, while the per-stage
  // reports keep the per-job values the trace spans reconcile against.
  Counters counters;
  std::vector<StageReport> stages;
  double start = 0.0;
  double end = 0.0;  // end of the last executed stage
  // Total measured wall-clock seconds across the executed stages.
  double wall_seconds = 0.0;
  bool failed = false;
  // Verbatim from the failing stage (stages label their own errors).
  std::string error;

  // Report of the stage named `name`, or nullptr if it did not execute.
  const StageReport* Find(const std::string& name) const;
};

// Chains multiple MapReduce jobs (and driver-side computations between
// them) on one simulated cluster: each stage is submitted at the previous
// stage's simulated end time, counters merge across stages, and the first
// failing stage stops the pipeline with its error. This is the multi-job
// structure every ER driver shares — MRSN runs one job per blocking-family
// pass, the progressive approach chains the statistics job, schedule
// generation and the resolution job.
class Pipeline {
 public:
  // Runs one stage submitted at `submit_time`; returns its outcome.
  using StageFn = std::function<StageResult(double submit_time)>;
  // Driver-side computation charged as simulated time; returns its
  // duration in seconds. Never fails.
  using ComputeFn = std::function<double(double submit_time)>;

  // Appends a MapReduce (or custom) stage.
  void AddStage(std::string name, StageFn fn);

  // Appends a computation stage: end_time = submit_time + fn(submit_time).
  void AddComputation(std::string name, ComputeFn fn);

  // Attaches a trace recorder: Run registers each stage as a trace process
  // (TraceRecorder::BeginProcess) right before executing it, so spans the
  // stage records group under a per-stage pid. Observational only.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Executes the stages in order, starting at `submit_time`. Stops after
  // the first failing stage; its report is still included and its counters
  // still merged.
  PipelineResult Run(double submit_time = 0.0) const;

 private:
  struct Stage {
    std::string name;
    StageFn fn;
  };
  std::vector<Stage> stages_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_PIPELINE_H_
