#include "core/stats_job.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "core/er_driver.h"
#include "mapreduce/job.h"
#include "mapreduce/serde.h"

namespace progres {

namespace {

// Shuffle value of the statistics job: the entity's blocking key chain for
// one family plus its dominating-root-key tuple.
struct StatsValue {
  std::vector<std::string> level_keys;  // keys at levels 1..L
  std::string tuple;                    // dominating families' root keys
};

// One per-block statistics record produced by the reduce phase.
struct StatsRecord {
  int family = 0;
  int level = 1;
  std::string path;
  std::string parent_path;  // empty for roots
  int64_t size = 0;
  int64_t uncov = 0;
};

constexpr double kMapEmitCost = 0.05;
constexpr double kReduceValueCost = 0.05;

// The murmur3 64-bit finalizer: spreads integer keys over a table's low
// bits.
uint64_t Mix64(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}

uint64_t HashBytes(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

// Dense ids 0, 1, ... for the distinct keys of one root block, in one
// open-addressing table: linear probing over (hash, id, generation) slots,
// at most half full, doubled when an insert would pass that. The caller
// keeps the keys, indexed by id, and tells Find how to compare one. Clear
// forgets every key by moving to the next generation, so starting the next
// root block costs nothing however large an earlier one grew the table.
class IdTable {
 public:
  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: stale slots would look live
      for (Slot& slot : slots_) slot.generation = 0;
      generation_ = 1;
    }
  }

  // The id of the key whose `hash` matches and that `same(id)` accepts.
  // A key not yet present gets the next id, and `*added` is set.
  template <typename Same>
  uint32_t Find(uint64_t hash, Same&& same, bool* added) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot = {hash, static_cast<uint32_t>(size_), generation_};
        *added = true;
        return static_cast<uint32_t>(size_++);
      }
      if (slot.hash == hash && same(slot.id)) {
        *added = false;
        return slot.id;
      }
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = 0;
    uint32_t generation = 0;  // live when equal to the table's
  };

  void Grow() {
    std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.generation != generation_) continue;
      size_t i = slot.hash & mask_;
      while (slots_[i].generation == generation_) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // size 0 or a power of two
  size_t mask_ = 0;
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

// Rebuilds the tree of one root block at a time from its reduce group, the
// way BuildForests + ComputeUncoveredPairs build it from the whole dataset,
// without a string-keyed map per block or per subset:
//   - blocks get dense ids by their full path (as Forest::by_path keys
//     them);
//   - overlap tuples get dense ids, and so does each of their components,
//     split as UncoveredFromJointCounts splits them;
//   - for every non-empty subset mask of the dominating families, every
//     tuple gets a dense id of its projection onto the subset. Projecting
//     split components is injective, so equal projection ids are exactly
//     equal projected tuple strings;
//   - each block's Uncov is the inclusion–exclusion sum of Sec. IV-A over
//     counts indexed by those ids.
// One aggregator lives in each reduce task's state; its tables keep their
// capacity from one root block to the next and are freed when the task
// finishes.
class RootBlockAggregator {
 public:
  // Appends one record per block of the root block whose shuffle values
  // are `values` (family `family`), charging kReduceValueCost per value and
  // per record.
  void Aggregate(int family, const std::vector<StatsValue>& values,
                 CostClock* clock, std::vector<StatsRecord>* sink) {
    CollectBlocks(values, clock);
    const int dominating = family;
    if (dominating > 0) {
      InternTuples(values, dominating);
      ProjectTuples(dominating);
      GroupMembers(values);
    }
    for (uint32_t n = 0; n < blocks_.size(); ++n) {
      const Block& block = blocks_[n];
      StatsRecord record;
      record.family = family;
      record.level = block.level;
      record.path = std::string(PathOf(n));
      if (block.parent != kNoParent) {
        record.parent_path = std::string(PathOf(block.parent));
      }
      record.size = block.size;
      record.uncov = dominating > 0 ? Uncovered(n, dominating) : 0;
      clock->Charge(kReduceValueCost);
      sink->push_back(std::move(record));
    }
  }

 private:
  static constexpr uint32_t kNoParent = ~uint32_t{0};

  struct Block {
    uint32_t parent = kNoParent;
    int level = 1;
    int64_t size = 0;
  };

  std::string_view PathOf(uint32_t n) const {
    const size_t begin = n == 0 ? 0 : path_ends_[n - 1];
    return std::string_view(paths_).substr(begin, path_ends_[n] - begin);
  }

  // Walks every value's key chain: one block per distinct path, each
  // value's block at every level recorded in `memberships_`.
  void CollectBlocks(const std::vector<StatsValue>& values, CostClock* clock) {
    block_ids_.Clear();
    blocks_.clear();
    paths_.clear();
    path_ends_.clear();
    memberships_.clear();
    for (const StatsValue& value : values) {
      clock->Charge(kReduceValueCost);
      path_.clear();
      uint32_t parent = kNoParent;
      for (size_t level = 1; level <= value.level_keys.size(); ++level) {
        if (level > 1) path_.push_back(kPathSeparator);
        path_ += value.level_keys[level - 1];
        bool added = false;
        const uint32_t n = block_ids_.Find(
            HashBytes(path_),
            [&](uint32_t id) { return PathOf(id) == path_; }, &added);
        if (added) {
          paths_ += path_;
          path_ends_.push_back(paths_.size());
          blocks_.push_back({parent, static_cast<int>(level), 0});
        }
        ++blocks_[n].size;
        memberships_.push_back(n);
        parent = n;
      }
    }
  }

  // Gives each distinct tuple an id (`tuple_of_`, per value) and splits it
  // into `dominating` components exactly as UncoveredFromJointCounts does;
  // component d of tuple t has id components_[t * dominating + d], one id
  // per distinct byte string (projections only ever compare components of
  // the same position). The views point into `values`, which outlive the
  // call.
  void InternTuples(const std::vector<StatsValue>& values, int dominating) {
    tuple_ids_.Clear();
    tuples_.clear();
    tuple_of_.clear();
    for (const StatsValue& value : values) {
      const std::string_view tuple(value.tuple);
      bool added = false;
      const uint32_t t = tuple_ids_.Find(
          HashBytes(tuple),
          [&](uint32_t id) { return tuples_[id] == tuple; }, &added);
      if (added) tuples_.push_back(tuple);
      tuple_of_.push_back(t);
    }
    component_ids_.Clear();
    component_keys_.clear();
    components_.clear();
    for (const std::string_view tuple : tuples_) {
      size_t start = 0;
      for (int d = 0; d < dominating; ++d) {
        size_t end = tuple.find(kTupleSeparator, start);
        if (end == std::string_view::npos) end = tuple.size();
        const std::string_view part = tuple.substr(start, end - start);
        start = end + 1;
        bool added = false;
        const uint32_t c = component_ids_.Find(
            HashBytes(part),
            [&](uint32_t id) { return component_keys_[id] == part; }, &added);
        if (added) component_keys_.push_back(part);
        components_.push_back(c);
      }
    }
  }

  // projections_[(mask - 1) * T + t]: the id of tuple t's projection onto
  // `mask`'s families, dense per mask (T tuples). A one-family mask's ids
  // are the component ids; a wider mask pairs the projection onto its
  // lower families with the component of its highest one.
  void ProjectTuples(int dominating) {
    const size_t tuples = tuples_.size();
    const uint32_t full = (1u << dominating) - 1u;
    projections_.resize(full * tuples);
    size_t max_ids = component_keys_.size();
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const int d = 31 - __builtin_clz(mask);
      const uint32_t rest = mask & ~(1u << d);
      uint32_t* out = projections_.data() + (mask - 1) * tuples;
      if (rest == 0) {
        for (size_t t = 0; t < tuples; ++t) {
          out[t] = components_[t * static_cast<size_t>(dominating) +
                               static_cast<size_t>(d)];
        }
        continue;
      }
      const uint32_t* lower = projections_.data() + (rest - 1) * tuples;
      pair_ids_.Clear();
      pair_keys_.clear();
      for (size_t t = 0; t < tuples; ++t) {
        const uint64_t key =
            static_cast<uint64_t>(lower[t]) << 32 |
            components_[t * static_cast<size_t>(dominating) +
                        static_cast<size_t>(d)];
        bool added = false;
        out[t] = pair_ids_.Find(
            Mix64(key), [&](uint32_t id) { return pair_keys_[id] == key; },
            &added);
        if (added) pair_keys_.push_back(key);
      }
      max_ids = std::max(max_ids, pair_keys_.size());
    }
    if (counts_.size() < max_ids) counts_.resize(max_ids, 0);
  }

  // Lays the memberships out block by block: members_[member_begin_[n] ..
  // member_begin_[n + 1]) holds the tuple id of each record in block n.
  void GroupMembers(const std::vector<StatsValue>& values) {
    member_begin_.assign(blocks_.size() + 1, 0);
    for (uint32_t n = 0; n < blocks_.size(); ++n) {
      member_begin_[n + 1] =
          member_begin_[n] + static_cast<uint32_t>(blocks_[n].size);
    }
    cursor_.assign(member_begin_.begin(), member_begin_.end() - 1);
    members_.resize(memberships_.size());
    size_t k = 0;
    for (size_t v = 0; v < values.size(); ++v) {
      for (size_t level = 0; level < values[v].level_keys.size(); ++level) {
        members_[cursor_[memberships_[k++]]++] = tuple_of_[v];
      }
    }
  }

  // Uncov of block `n` (Sec. IV-A): over every non-empty subset of the
  // dominating families, with sign (-1)^(|subset|+1), the pairs of the
  // block's records that share the subset's root keys. `counts_` is all
  // zero between calls.
  int64_t Uncovered(uint32_t n, int dominating) {
    const size_t tuples = tuples_.size();
    const uint32_t* begin = members_.data() + member_begin_[n];
    const uint32_t* end = members_.data() + member_begin_[n + 1];
    const uint32_t full = (1u << dominating) - 1u;
    int64_t uncov = 0;
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const uint32_t* projection =
          projections_.data() + (mask - 1) * tuples;
      for (const uint32_t* t = begin; t != end; ++t) {
        ++counts_[projection[*t]];
      }
      int64_t term = 0;
      for (const uint32_t* t = begin; t != end; ++t) {
        int64_t& count = counts_[projection[*t]];
        term += PairsOf(count);
        count = 0;
      }
      uncov += __builtin_popcount(mask) % 2 == 1 ? term : -term;
    }
    return uncov;
  }

  // Blocks of the current root block.
  IdTable block_ids_;
  std::vector<Block> blocks_;
  std::string paths_;               // block paths back to back
  std::vector<size_t> path_ends_;   // end of block n's path in paths_
  std::string path_;                // the path being walked
  std::vector<uint32_t> memberships_;  // block per (value, level)

  // Overlap tuples and their components.
  IdTable tuple_ids_;
  std::vector<std::string_view> tuples_;
  std::vector<uint32_t> tuple_of_;  // per value
  IdTable component_ids_;
  std::vector<std::string_view> component_keys_;
  std::vector<uint32_t> components_;  // per (tuple, dominating family)

  // Subset projections and the per-block inclusion–exclusion.
  IdTable pair_ids_;
  std::vector<uint64_t> pair_keys_;
  std::vector<uint32_t> projections_;
  std::vector<uint32_t> member_begin_;
  std::vector<uint32_t> cursor_;
  std::vector<uint32_t> members_;
  std::vector<int64_t> counts_;
};

// State of one statistics reduce task: its records, and the aggregator
// whose tables the task's root blocks reuse.
struct StatsTaskState {
  std::vector<StatsRecord> records;
  RootBlockAggregator aggregator;
};

}  // namespace

// Wire form of StatsValue: a counted sequence of level keys, then the
// tuple — each length-prefixed.
template <>
struct KvCodec<StatsValue> {
  static void Encode(const StatsValue& value, std::string* out) {
    PutVarint64(value.level_keys.size(), out);
    for (const std::string& level_key : value.level_keys) {
      PutString(level_key, out);
    }
    PutString(value.tuple, out);
  }
  static bool Decode(std::string_view in, size_t* offset, StatsValue* value) {
    uint64_t count = 0;
    if (!GetVarint64(in, offset, &count)) return false;
    // Each key costs at least its one-byte length prefix, so a count past
    // the remaining bytes is corruption — reject before reserving.
    if (count > in.size() - *offset) return false;
    value->level_keys.clear();
    value->level_keys.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      std::string level_key;
      if (!GetString(in, offset, &level_key)) return false;
      value->level_keys.push_back(std::move(level_key));
    }
    return GetString(in, offset, &value->tuple);
  }
};

StatsJobOutput RunStatisticsJob(const Dataset& dataset,
                                const BlockingConfig& config,
                                const ClusterConfig& cluster,
                                int num_map_tasks, int num_reduce_tasks,
                                double submit_time) {
  StatsJobOutput output;

  // Preprocessing is all-or-nothing: the degradation budget applies to
  // resolution output, not the statistics pre-pass (a partial forest would
  // silently skew every downstream schedule), so the pre-pass runs with job
  // supervision stripped and its failures stay hard failures.
  ClusterConfig stats_cluster = cluster;
  stats_cluster.control = JobControl{};

  // Per-reduce-task state (each task writes only its own slot). A failed
  // reduce attempt may have flushed records into its state; the registry's
  // task-state hook drops them so the retry starts clean.
  TaskStateRegistry<StatsTaskState> states(num_reduce_tasks);

  using Job = MapReduceJob<Entity, std::string, StatsValue>;
  Job job(num_map_tasks, num_reduce_tasks);
  job.set_map_cost_per_record(0.1);
  states.Install(&job);
  // A finished task's tables are done: free them before the next task
  // grows its own.
  job.set_reduce_cleanup([&states](Job::ReduceContext* ctx) {
    states.at(ctx->task_id()).aggregator = RootBlockAggregator();
  });

  const auto map_fn = [&config](const Entity& e, Job::MapContext* ctx) {
    // Each (family, level) key is built once, into buffers reused across
    // entities (Emit encodes the pair on the spot): family f's tuple is
    // the dominating families' root keys, grown by one family per step.
    thread_local StatsValue value;
    thread_local std::string key;
    thread_local std::string tuple;
    tuple.clear();
    for (int f = 0; f < config.num_families(); ++f) {
      const int levels = config.family(f).levels();
      value.level_keys.resize(static_cast<size_t>(levels));
      for (int level = 1; level <= levels; ++level) {
        std::string& level_key =
            value.level_keys[static_cast<size_t>(level - 1)];
        level_key.clear();
        config.AppendKey(f, level, e, &level_key);
      }
      value.tuple = tuple;
      if (f > 0) tuple.push_back(kTupleSeparator);
      tuple += value.level_keys.front();
      key.clear();
      key.push_back(static_cast<char>('0' + f));
      key.push_back(kPathSeparator);
      key += value.level_keys.front();
      ctx->clock().Charge(kMapEmitCost);
      ctx->Emit(key, value);
    }
  };

  const auto reduce_fn = [&states](const std::string& key,
                                   std::vector<StatsValue>* values,
                                   Job::ReduceContext* ctx) {
    StatsTaskState& state = states.at(ctx->task_id());
    state.aggregator.Aggregate(key.front() - '0', *values, &ctx->clock(),
                               &state.records);
  };

  // The job records no trace process of its own: under the progressive
  // driver its spans land in the pipeline's "statistics job" process via
  // the recorder's current pid (standalone, under the default pid 0).
  Job::Result run = job.Run(dataset.entities(), map_fn, reduce_fn,
                            stats_cluster, submit_time);
  output.timing = std::move(run.timing);
  output.counters = std::move(run.counters);
  if (run.failed) {
    output.failed = true;
    output.error = "statistics job: " + run.error;
    return output;
  }

  // ---- Assemble forests from the emitted records ----
  std::vector<StatsRecord> records;
  for (StatsTaskState& state : states.states()) {
    for (StatsRecord& record : state.records) {
      records.push_back(std::move(record));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const StatsRecord& a, const StatsRecord& b) {
              if (a.family != b.family) return a.family < b.family;
              if (a.level != b.level) return a.level < b.level;
              return a.path < b.path;
            });

  output.forests.resize(static_cast<size_t>(config.num_families()));
  for (int f = 0; f < config.num_families(); ++f) {
    output.forests[static_cast<size_t>(f)].family = f;
  }
  // Keys hold no path separator, so a parent sorts a level before its
  // children.
  for (const StatsRecord& record : records) {
    Forest& forest = output.forests[static_cast<size_t>(record.family)];
    const int n = static_cast<int>(forest.nodes.size());
    forest.by_path.emplace(record.path, n);
    BlockNode node;
    node.id = {record.family, record.level, record.path};
    node.size = record.size;
    node.uncov = record.uncov;
    if (record.level == 1) {
      forest.roots.push_back(n);
    } else {
      node.parent = forest.by_path.at(record.parent_path);
      forest.nodes[static_cast<size_t>(node.parent)].children.push_back(n);
    }
    forest.nodes.push_back(std::move(node));
  }
  return output;
}

}  // namespace progres
