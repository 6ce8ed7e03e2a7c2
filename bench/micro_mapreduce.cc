// Microbenchmarks of the MapReduce runtime: shuffle + sort + group
// throughput at several task counts and the reduce-side merge of a spilled
// partition (google-benchmark mode), plus a
// "--json[=path]" mode that measures the same fixed workload on both
// execution backends and writes a BENCH_micro_mapreduce.json report for
// the CI regression gate (tools/compare_bench.py).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"

namespace progres {
namespace {

void BM_ShuffleThroughput(benchmark::State& state) {
  using Job = MapReduceJob<int64_t, int64_t, int64_t>;
  const int tasks = static_cast<int>(state.range(0));
  std::vector<int64_t> input;
  input.reserve(200000);
  for (int64_t i = 0; i < 200000; ++i) input.push_back(i * 2654435761 % 9973);

  ClusterConfig cluster;
  cluster.machines = tasks;
  cluster.map_slots_per_machine = 1;
  cluster.reduce_slots_per_machine = 1;
  for (auto _ : state) {
    Job job(tasks, tasks);
    const auto result = job.Run(
        input,
        [](const int64_t& record, Job::MapContext* ctx) {
          ctx->Emit(record % 1024, record);
        },
        [](const int64_t& key, std::vector<int64_t>* values,
           Job::ReduceContext* ctx) {
          int64_t sum = 0;
          for (int64_t v : *values) sum += v;
          ctx->Emit(key, sum);
        },
        cluster);
    benchmark::DoNotOptimize(result.outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_ShuffleThroughput)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The reduce side of a string-keyed, string-valued job: decodes each
// record's value (and, opening a group, its key) into reused buffers and
// counts the grouped values.
class CountingSink final : public Shuffle::MergeSink {
 public:
  bool Take(std::string_view in, size_t key_size, bool opens,
            size_t* size) override {
    size_t offset = key_size;
    if (opens) {
      offset = 0;
      if (!KvCodec<std::string>::Decode(in, &offset, &key_)) return false;
    }
    if (!KvCodec<std::string>::Decode(in, &offset, &value_)) return false;
    *size = offset;
    ++values_;
    return true;
  }
  void Finish() override {}

  int64_t values() const { return values_; }

 private:
  std::string key_;
  std::string value_;
  int64_t values_ = 0;
};

// One reduce partition shaped like a statistics-job partition under a
// tight shuffle budget: 30,000 records of ~200 distinct 4-6 byte keys
// ("<family>\x1f<root key>") with 24-byte values, from 20 map outputs that
// each spill a run every 57-60 records, so the merge reads 500 spilled
// segments plus 20 memory tails. Each iteration merges and groups the
// whole partition; the map side and the spill files are built once.
void BM_SpilledMerge(benchmark::State& state) {
  constexpr int kOutputs = 20;
  constexpr int kRecordsPerOutput = 1500;
  constexpr int kRunRecords = 60;
  std::string error;
  Shuffle::SpillConfig spill;
  spill.enabled = true;
  spill.block_bytes = 16 * 1024;
  spill.dir = ResolveSpillDir("", &error);
  if (!error.empty()) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::vector<std::string> keys;
  for (int k = 0; k < 200; ++k) {
    std::string key = std::to_string(k % 3);
    key.push_back('\x1f');
    key += static_cast<char>('a' + k % 26);
    for (int c = 0; c < k % 3 + 1; ++c) key += static_cast<char>('a' + k / 26);
    keys.push_back(std::move(key));
  }
  // Records take 1 + 4..6 + 1 + 24 bytes, so 57-60 of them fill a run.
  spill.task_buffer_bytes = kRunRecords * 30;
  Shuffle shuffle(1, KeyFormat::kString);
  shuffle.set_spill(spill);
  std::vector<std::unique_ptr<Shuffle::MapOutput>> outputs;
  std::vector<Shuffle::MapOutput*> maps;
  uint64_t x = 88172645463325252ull;
  std::string record;
  for (int t = 0; t < kOutputs; ++t) {
    auto& out = outputs.emplace_back(std::make_unique<Shuffle::MapOutput>());
    out->Reset(shuffle, t);
    for (int i = 0; i < kRecordsPerOutput; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      record.clear();
      KvCodec<std::string>::Encode(keys[x % keys.size()], &record);
      KvCodec<std::string>::Encode(std::string(24, 'v'), &record);
      out->Add(0, record);
    }
    maps.push_back(out.get());
  }
  int64_t records = 0;
  int64_t sources = 0;
  for (auto _ : state) {
    Shuffle::Merge merge(shuffle, maps, 0);
    CountingSink sink;
    merge.ForEachGroup(merge.records() + 1, sink);
    benchmark::DoNotOptimize(sink.values());
    records = static_cast<int64_t>(merge.records());
    sources = merge.stats().runs_merged;
  }
  state.counters["segments"] = static_cast<double>(sources);
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_SpilledMerge)->Unit(benchmark::kMillisecond);

// ---- BENCH_micro_mapreduce.json ----

using JsonJob = MapReduceJob<int64_t, int64_t, int64_t>;

// The JSON-mode workload: 2M records shuffled into 16 map x 16 reduce
// tasks on a 4-machine cluster (8 slots per phase), so every measured
// thread count in {1, 4, 8} stays within the slot capacity and has more
// tasks than workers.
JsonJob::Result RunJsonWorkload(const std::vector<int64_t>& input,
                                ExecutionBackend backend, int threads) {
  ClusterConfig cluster;
  cluster.machines = 4;
  cluster.backend = backend;
  cluster.execution_threads = threads;
  JsonJob job(16, 16);
  return job.Run(
      input,
      [](const int64_t& record, JsonJob::MapContext* ctx) {
        ctx->Emit(record % 1024, record);
      },
      [](const int64_t& key, std::vector<int64_t>* values,
         JsonJob::ReduceContext* ctx) {
        int64_t sum = 0;
        for (int64_t v : *values) sum += v;
        ctx->Emit(key, sum);
      },
      cluster);
}

int JsonMain(const std::string& path) {
  // Larger than the google-benchmark workload: the regression gate needs
  // per-run wall times well above timer noise.
  constexpr int64_t kRecords = 2000000;
  std::vector<int64_t> input;
  input.reserve(kRecords);
  for (int64_t i = 0; i < kRecords; ++i) input.push_back(i * 2654435761 % 9973);
  const double pairs = static_cast<double>(input.size());

  struct Config {
    const char* label;
    ExecutionBackend backend;
    int threads;
  };
  const std::vector<Config> configs = {
      {"sim", ExecutionBackend::kSimulated, 0},
      {"t1", ExecutionBackend::kThreaded, 1},
      {"t4", ExecutionBackend::kThreaded, 4},
      {"t8", ExecutionBackend::kThreaded, 8},
  };

  bench::BenchReport report("micro_mapreduce");
  const JsonJob::Result reference =
      RunJsonWorkload(input, ExecutionBackend::kSimulated, 0);
  if (reference.failed) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 reference.error.c_str());
    return 1;
  }
  // The simulated makespan and shuffle volume are results-clock facts,
  // identical for every backend — record them once, exactly.
  report.AddSim("sim_makespan_seconds", "sim_s", reference.timing.end);
  report.AddSim("shuffle_records", "records",
                static_cast<double>(
                    reference.counters.Get("mr.shuffle.records")));

  for (const Config& config : configs) {
    // Best of seven: the regression gate wants the build's capability;
    // taking the fastest rep sheds transient load on shared runners.
    JobWallTiming best;
    best.total_seconds = -1.0;
    for (int rep = 0; rep < 7; ++rep) {
      const JsonJob::Result result =
          RunJsonWorkload(input, config.backend, config.threads);
      if (result.failed) {
        std::fprintf(stderr, "%s run failed: %s\n", config.label,
                     result.error.c_str());
        return 1;
      }
      if (result.outputs != reference.outputs) {
        std::fprintf(stderr,
                     "%s run diverged from the simulated reference\n",
                     config.label);
        return 1;
      }
      if (best.total_seconds < 0.0 ||
          result.timing.wall.total_seconds < best.total_seconds) {
        best = result.timing.wall;
      }
    }
    const std::string label = config.label;
    // The serial backend's timings are reproducible enough to gate; the
    // threaded pool's depend on how many cores the host really has (an
    // oversubscribed 1-core runner swings them by tens of percent), so
    // they are recorded as ungated trend data.
    const bool gated = config.backend == ExecutionBackend::kSimulated;
    report.AddWall("pairs_per_sec_" + label, "pairs/s",
                   pairs / best.total_seconds, /*higher_is_better=*/true,
                   gated);
    report.AddWall("wall_map_seconds_" + label, "wall_s", best.map_seconds,
                   /*higher_is_better=*/false, gated);
    report.AddWall("wall_reduce_seconds_" + label, "wall_s",
                   best.reduce_seconds, /*higher_is_better=*/false, gated);
    report.AddWall("wall_total_seconds_" + label, "wall_s",
                   best.total_seconds, /*higher_is_better=*/false, gated);
  }

  if (!report.WriteJson(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace progres

int main(int argc, char** argv) {
  std::string json_path;
  if (progres::bench::ParseJsonMode(argc, argv, "micro_mapreduce",
                                    &json_path)) {
    return progres::JsonMain(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
