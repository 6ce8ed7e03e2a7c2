#include "schedule/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <functional>
#include <iterator>
#include <limits>
#include <unordered_set>
#include <utility>

namespace progres {

namespace {

// One entry of the utility-sorted list SL (Sec. IV-C1).
struct SlEntry {
  BlockRef ref;
  double util = 0.0;
  double cost = 0.0;
};

// SL order: non-increasing utility, ties broken on family, then node
// index. Utilities are finite (costs are floored above zero), so the order
// is total and every sort of the same entries gives the same list.
bool SlBefore(const SlEntry& a, const SlEntry& b) {
  if (a.util != b.util) return a.util > b.util;
  if (a.ref.family != b.ref.family) return a.ref.family < b.ref.family;
  return a.ref.node < b.ref.node;
}

// Collects every live block and sorts it into SL order.
std::vector<SlEntry> BuildSl(const std::vector<AnnotatedForest>& forests) {
  std::vector<SlEntry> sl;
  for (const AnnotatedForest& forest : forests) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      sl.push_back({{forest.family(), n}, b.util, b.cost});
    }
  }
  std::sort(sl.begin(), sl.end(), SlBefore);
  return sl;
}

// Brings `sl` up to date after a split round. Splits change no block's
// liveness, only the utility and cost of the blocks they re-estimate (the
// split blocks and their ancestors), so only those entries are pulled out,
// refreshed and sorted, then merged with the rest, which stayed in order.
// The result is the list BuildSl would build.
void RefreshSl(const std::vector<AnnotatedForest>& forests,
               std::vector<SlEntry>* sl) {
  std::vector<SlEntry> changed;
  size_t kept = 0;
  for (const SlEntry& entry : *sl) {
    const AnnotatedBlock& b =
        forests[static_cast<size_t>(entry.ref.family)].block(entry.ref.node);
    if (b.util == entry.util && b.cost == entry.cost) {
      (*sl)[kept++] = entry;
    } else {
      changed.push_back({entry.ref, b.util, b.cost});
    }
  }
  if (changed.empty()) return;
  sl->resize(kept);
  std::sort(changed.begin(), changed.end(), SlBefore);
  std::vector<SlEntry> merged;
  merged.reserve(kept + changed.size());
  std::merge(sl->begin(), sl->end(), changed.begin(), changed.end(),
             std::back_inserter(merged), SlBefore);
  sl->swap(merged);
}

// Bucket of every live block, indexed by family and node; -1 for blocks
// outside SL (eliminated ones).
using BucketMap = std::vector<std::vector<int>>;

int BucketOf(const BucketMap& bucket_of, int family, int node) {
  return bucket_of[static_cast<size_t>(family)][static_cast<size_t>(node)];
}

// Assigns each SL entry to a bucket: bucket i (0-based) holds the blocks
// resolvable during (c_{i-1} * r, c_i * r] cumulative cost units. Blocks
// past c_k * r land in the virtual overflow bucket (index k), which has
// unbounded capacity and is excluded from overflow checks.
void AssignBuckets(const std::vector<AnnotatedForest>& forests,
                   const std::vector<SlEntry>& sl,
                   const std::vector<double>& cost_vector,
                   int num_reduce_tasks, BucketMap* bucket_of) {
  bucket_of->resize(forests.size());
  for (size_t f = 0; f < forests.size(); ++f) {
    (*bucket_of)[f].assign(static_cast<size_t>(forests[f].num_blocks()), -1);
  }
  double cumulative = 0.0;
  size_t bucket = 0;
  const double r = static_cast<double>(num_reduce_tasks);
  for (const SlEntry& entry : sl) {
    cumulative += entry.cost;
    while (bucket < cost_vector.size() &&
           cumulative > cost_vector[bucket] * r) {
      ++bucket;
    }
    (*bucket_of)[static_cast<size_t>(entry.ref.family)]
                [static_cast<size_t>(entry.ref.node)] =
        static_cast<int>(bucket);
  }
}

// Capacity of bucket h: c_h - c_{h-1} (with c_0 = 0).
double BucketCapacity(const std::vector<double>& cost_vector, int h) {
  return h == 0 ? cost_vector[0]
                : cost_vector[static_cast<size_t>(h)] -
                      cost_vector[static_cast<size_t>(h - 1)];
}

// The tree cost vector VC(T): per bucket, the total cost of the subtree's
// blocks (Sec. IV-C2). Vector has |C| + 1 entries (last = overflow bucket).
std::vector<double> SubtreeCostVector(const AnnotatedForest& forest,
                                      int root, const BucketMap& bucket_of,
                                      int num_buckets) {
  std::vector<double> vc(static_cast<size_t>(num_buckets) + 1, 0.0);
  for (int n : forest.TreeBlocks(root)) {
    const int bucket = BucketOf(bucket_of, forest.family(), n);
    if (bucket < 0) continue;
    vc[static_cast<size_t>(bucket)] += forest.block(n).cost;
  }
  return vc;
}

// Sum of CostP over the subtree rooted at `node` (in-tree blocks only).
double SubtreeCostP(const AnnotatedForest& forest, int node,
                    const MechanismCosts& costs) {
  double sum = 0.0;
  for (int n : forest.TreeBlocks(node)) {
    const AnnotatedBlock& b = forest.block(n);
    sum += CostP(b.dup, b.dis, costs);
  }
  return sum;
}

// In-tree (non-eliminated, non-split) children of `node`, sorted by
// non-increasing utility.
std::vector<int> SortedInTreeChildren(const AnnotatedForest& forest,
                                      int node) {
  std::vector<int> children;
  for (int c : forest.block(node).children) {
    const AnnotatedBlock& cb = forest.block(c);
    if (!cb.eliminated && !cb.tree_root) children.push_back(c);
  }
  std::sort(children.begin(), children.end(), [&](int a, int b) {
    const double ua = forest.block(a).util;
    const double ub = forest.block(b).util;
    if (ua != ub) return ua > ub;
    return a < b;
  });
  return children;
}

// SHOULD-SPLIT (Fig. 6): would keeping child `c` (in addition to the already
// kept children `kept`) still overflow some bucket, even if every remaining
// child were split away?
bool ShouldSplit(const AnnotatedForest& forest, int root, int candidate,
                 const std::vector<int>& kept,
                 const std::vector<int>& remaining,
                 const BucketMap& bucket_of,
                 const std::vector<double>& cost_vector,
                 std::vector<double>* v_star) {
  const AnnotatedBlock& root_block = forest.block(root);
  const int num_buckets = static_cast<int>(cost_vector.size());

  // Hypothetical covered pairs of the root if all remaining children (other
  // than the candidate) were split off.
  int64_t cov_hyp = root_block.cov;
  for (int d : remaining) {
    if (d == candidate) continue;
    cov_hyp -= forest.block(d).cov;
  }
  cov_hyp = std::max<int64_t>(0, cov_hyp);

  // Hypothetical Eq. 5 cost of the root with Chd = kept + {candidate}.
  const MechanismCosts& costs = forest.params().costs;
  double desc_costp = 0.0;
  for (int e : kept) desc_costp += SubtreeCostP(forest, e, costs);
  desc_costp += SubtreeCostP(forest, candidate, costs);
  double cost_hyp = CostA(root_block.size, costs) +
                    CostF(root_block.size, root_block.window, cov_hyp, costs) -
                    desc_costp;
  cost_hyp = std::max(cost_hyp, CostA(root_block.size, costs));

  // Place the hypothetical cost in the root's current SL bucket.
  const int root_bucket = BucketOf(bucket_of, forest.family(), root);
  const int s = root_bucket < 0 ? num_buckets : root_bucket;
  (*v_star)[static_cast<size_t>(s)] = cost_hyp;

  // Test every real bucket's capacity against kept + candidate + V*.
  std::vector<double> load(static_cast<size_t>(num_buckets) + 1, 0.0);
  for (int e : kept) {
    const std::vector<double> vc =
        SubtreeCostVector(forest, e, bucket_of, num_buckets);
    for (size_t h = 0; h < load.size(); ++h) load[h] += vc[h];
  }
  const std::vector<double> vc_candidate =
      SubtreeCostVector(forest, candidate, bucket_of, num_buckets);
  for (size_t h = 0; h < load.size(); ++h) load[h] += vc_candidate[h];

  for (int h = 0; h < num_buckets; ++h) {
    if (load[static_cast<size_t>(h)] + (*v_star)[static_cast<size_t>(h)] >
        BucketCapacity(cost_vector, h)) {
      return true;
    }
  }
  return false;
}

// SPLIT-TREE (Fig. 6). Returns the number of subtrees split off.
int SplitTree(AnnotatedForest* forest, int root,
              const BucketMap& bucket_of,
              const std::vector<double>& cost_vector) {
  std::vector<int> children = SortedInTreeChildren(*forest, root);
  std::vector<int> kept;
  std::vector<double> v_star(cost_vector.size() + 1, 0.0);
  int splits = 0;
  for (size_t i = 0; i < children.size(); ++i) {
    const int c = children[i];
    const std::vector<int> remaining(children.begin() + static_cast<long>(i),
                                     children.end());
    if (ShouldSplit(*forest, root, c, kept, remaining, bucket_of, cost_vector,
                    &v_star)) {
      forest->SplitSubtree(c);
      ++splits;
    } else {
      kept.push_back(c);
    }
  }
  return splits;
}

// Pairs of a kSub unit: (i, i + d) with d = 1..window-1, a_lo <= i < a_hi
// and b_lo <= i + d < b_hi over the block's sorted order.
int64_t SubPairCount(int64_t a_lo, int64_t a_hi, int64_t b_lo, int64_t b_hi,
                     int window) {
  int64_t pairs = 0;
  for (int64_t d = 1; d < window; ++d) {
    const int64_t lo = std::max(a_lo, b_lo - d);
    const int64_t hi = std::min(a_hi, b_hi - d);
    pairs += std::max<int64_t>(0, hi - lo);
  }
  return pairs;
}

// One live block with the data the pair-level schedulers need, in canonical
// (family, node) order.
struct PairBlock {
  BlockRef ref;
  int64_t size = 0;
  int window = 0;
  double util = 0.0;
  double cost = 0.0;
  int64_t pairs = 0;
};

std::vector<PairBlock> CollectPairBlocks(
    const std::vector<AnnotatedForest>& forests) {
  std::vector<PairBlock> blocks;
  for (const AnnotatedForest& forest : forests) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      blocks.push_back({{forest.family(), n},
                        b.size,
                        b.window,
                        b.util,
                        b.cost,
                        WindowPairCount(b.size, b.window)});
    }
  }
  return blocks;
}

// BlockSplit (Kolb et al., Sec. 4): blocks whose candidate-pair count
// exceeds the per-task average are split into m contiguous sub-ranges of
// their sorted order, yielding m "single" match tasks (both endpoints
// inside one range) and m-1 adjacent "cross" tasks (pairs straddling a
// boundary). Sub-ranges are kept at least `window` wide so, under the
// windowed enumeration (max rank distance window-1), no pair straddles two
// boundaries and the single + cross tasks partition the block's pair space
// exactly. All units are then assigned greedily by descending pair count to
// the least-loaded reduce task.
std::vector<std::vector<MatchTask>> AssignBlockSplit(
    const std::vector<PairBlock>& blocks, int num_reduce_tasks) {
  int64_t total = 0;
  for (const PairBlock& b : blocks) total += b.pairs;
  const double threshold =
      static_cast<double>(total) / static_cast<double>(num_reduce_tasks);

  std::vector<MatchTask> units;
  for (const PairBlock& b : blocks) {
    int64_t m = 1;
    if (threshold > 0.0 && static_cast<double>(b.pairs) > threshold &&
        b.window > 1) {
      const int64_t by_cost = static_cast<int64_t>(
          std::ceil(static_cast<double>(b.pairs) / threshold));
      const int64_t by_width = b.size / static_cast<int64_t>(b.window);
      m = std::max<int64_t>(1, std::min(by_cost, by_width));
    }
    if (m <= 1) {
      MatchTask unit;
      unit.ref = b.ref;
      unit.pairs = b.pairs;
      units.push_back(unit);
      continue;
    }
    const auto boundary = [&](int64_t k) { return k * b.size / m; };
    for (int64_t k = 0; k < m; ++k) {
      MatchTask single;
      single.ref = b.ref;
      single.kind = MatchTask::Kind::kSub;
      single.a_lo = single.b_lo = boundary(k);
      single.a_hi = single.b_hi = boundary(k + 1);
      single.pairs = SubPairCount(single.a_lo, single.a_hi, single.b_lo,
                                  single.b_hi, b.window);
      units.push_back(single);
    }
    for (int64_t k = 0; k + 1 < m; ++k) {
      MatchTask cross;
      cross.ref = b.ref;
      cross.kind = MatchTask::Kind::kSub;
      cross.a_lo = boundary(k);
      cross.a_hi = boundary(k + 1);
      cross.b_lo = boundary(k + 1);
      cross.b_hi = boundary(k + 2);
      cross.pairs = SubPairCount(cross.a_lo, cross.a_hi, cross.b_lo,
                                 cross.b_hi, b.window);
      units.push_back(cross);
    }
  }

  // Greedy descending-cost assignment (deterministic tie-breaks).
  std::sort(units.begin(), units.end(),
            [](const MatchTask& a, const MatchTask& b) {
              if (a.pairs != b.pairs) return a.pairs > b.pairs;
              if (!(a.ref == b.ref)) {
                if (a.ref.family != b.ref.family)
                  return a.ref.family < b.ref.family;
                return a.ref.node < b.ref.node;
              }
              if (a.a_lo != b.a_lo) return a.a_lo < b.a_lo;
              return a.b_lo < b.b_lo;
            });
  std::vector<std::vector<MatchTask>> task_units(
      static_cast<size_t>(num_reduce_tasks));
  std::vector<int64_t> load(static_cast<size_t>(num_reduce_tasks), 0);
  for (const MatchTask& unit : units) {
    int best = 0;
    for (int t = 1; t < num_reduce_tasks; ++t) {
      if (load[static_cast<size_t>(t)] < load[static_cast<size_t>(best)]) {
        best = t;
      }
    }
    load[static_cast<size_t>(best)] += unit.pairs;
    task_units[static_cast<size_t>(best)].push_back(unit);
  }
  return task_units;
}

// PairRange (Kolb et al., Sec. 5): the global comparison space — every live
// block's windowed pair enumeration, concatenated in canonical (family,
// node) order — is carved into num_reduce_tasks near-equal contiguous
// ranges. A block overlapping a range boundary contributes a kSlice unit
// restricted to the overlapping enumeration indices; zero-pair blocks ride
// with the task owning their (empty) global offset.
std::vector<std::vector<MatchTask>> AssignPairRange(
    const std::vector<PairBlock>& blocks, int num_reduce_tasks) {
  int64_t total = 0;
  for (const PairBlock& b : blocks) total += b.pairs;
  const auto task_begin = [&](int64_t t) {
    return t * total / num_reduce_tasks;
  };
  const auto task_of_index = [&](int64_t g) {
    // The task whose [task_begin(t), task_begin(t+1)) range owns global
    // pair index g; empty ranges are skipped by scanning forward.
    int64_t t = std::min<int64_t>(num_reduce_tasks - 1,
                                  g * num_reduce_tasks / std::max<int64_t>(
                                                             1, total));
    while (t > 0 && task_begin(t) > g) --t;
    while (t + 1 < num_reduce_tasks && task_begin(t + 1) <= g) ++t;
    return t;
  };

  std::vector<std::vector<MatchTask>> task_units(
      static_cast<size_t>(num_reduce_tasks));
  int64_t offset = 0;
  for (const PairBlock& b : blocks) {
    if (b.pairs == 0) {
      MatchTask unit;
      unit.ref = b.ref;
      task_units[static_cast<size_t>(task_of_index(offset))].push_back(unit);
      continue;
    }
    int64_t local = 0;
    while (local < b.pairs) {
      const int64_t t = task_of_index(offset + local);
      const int64_t range_end =
          t + 1 < num_reduce_tasks ? task_begin(t + 1) : total;
      const int64_t take = std::min(b.pairs - local, range_end - offset - local);
      MatchTask unit;
      unit.ref = b.ref;
      unit.pairs = take;
      if (local == 0 && take == b.pairs) {
        unit.kind = MatchTask::Kind::kWhole;
      } else {
        unit.kind = MatchTask::Kind::kSlice;
        unit.begin = local;
        unit.end = local + take;
      }
      task_units[static_cast<size_t>(t)].push_back(unit);
      local += take;
    }
    offset += b.pairs;
  }
  return task_units;
}

// Within-task unit order: by non-increasing block utility (units of one
// block adjacent, sub-ranges in position order), then fixed up so that
// units of a block's in-tree descendants present in the same task precede
// the block's own units — the bottom-up property the progressive
// mechanisms' incremental resolution exploits (Sec. III-A).
void OrderUnitsBottomUp(const std::vector<AnnotatedForest>& forests,
                        std::vector<MatchTask>* units) {
  std::sort(units->begin(), units->end(),
            [&](const MatchTask& a, const MatchTask& b) {
              const double ua =
                  forests[static_cast<size_t>(a.ref.family)].block(a.ref.node)
                      .util;
              const double ub =
                  forests[static_cast<size_t>(b.ref.family)].block(b.ref.node)
                      .util;
              if (ua != ub) return ua > ub;
              if (a.ref.family != b.ref.family)
                return a.ref.family < b.ref.family;
              if (a.ref.node != b.ref.node) return a.ref.node < b.ref.node;
              if (a.a_lo != b.a_lo) return a.a_lo < b.a_lo;
              return a.b_lo < b.b_lo;
            });
  // Each block's [first, last) index range in the sorted units.
  std::unordered_map<uint64_t, std::pair<size_t, size_t>> range_of;
  for (size_t i = 0; i < units->size(); ++i) {
    const uint64_t key = BlockRefKey((*units)[i].ref);
    range_of.try_emplace(key, i, i).first->second.second = i + 1;
  }
  std::vector<MatchTask> out;
  out.reserve(units->size());
  std::unordered_set<uint64_t> emitted;
  const std::function<void(const BlockRef&)> emit = [&](const BlockRef& ref) {
    if (!emitted.insert(BlockRefKey(ref)).second) return;
    const AnnotatedForest& forest = forests[static_cast<size_t>(ref.family)];
    for (int c : SortedInTreeChildren(forest, ref.node)) {
      emit({ref.family, c});
    }
    const auto it = range_of.find(BlockRefKey(ref));
    if (it == range_of.end()) return;
    out.insert(out.end(), units->begin() + static_cast<long>(it->second.first),
               units->begin() + static_cast<long>(it->second.second));
  };
  for (const MatchTask& unit : *units) emit(unit.ref);
  *units = std::move(out);
}

struct TreeInfo {
  BlockRef root;
  std::vector<double> vc;
  double weighted_cost = 0.0;
  double total_cost = 0.0;
};

// Collects every tree with its cost vector and weighted cost.
std::vector<TreeInfo> CollectTrees(
    const std::vector<AnnotatedForest>& forests,
    const BucketMap& bucket_of,
    const std::vector<double>& cost_vector,
    const std::vector<double>& weights) {
  const int num_buckets = static_cast<int>(cost_vector.size());
  std::vector<TreeInfo> trees;
  for (const AnnotatedForest& forest : forests) {
    for (int root : forest.tree_roots()) {
      TreeInfo info;
      info.root = {forest.family(), root};
      info.vc = SubtreeCostVector(forest, root, bucket_of, num_buckets);
      for (int h = 0; h < num_buckets; ++h) {
        info.weighted_cost += weights[static_cast<size_t>(h)] *
                              info.vc[static_cast<size_t>(h)];
      }
      // Overflow-bucket cost contributes with the smallest weight so that
      // huge late trees still order sensibly.
      info.weighted_cost +=
          weights.back() * 0.5 * info.vc[static_cast<size_t>(num_buckets)];
      for (double v : info.vc) info.total_cost += v;
      trees.push_back(std::move(info));
    }
  }
  return trees;
}

}  // namespace

std::vector<double> MakeUniformCostVector(double total_cost,
                                          int num_reduce_tasks, int k) {
  std::vector<double> c(static_cast<size_t>(k), 0.0);
  const double per_task =
      total_cost / std::max(1, num_reduce_tasks) / static_cast<double>(k);
  for (int i = 0; i < k; ++i) {
    c[static_cast<size_t>(i)] = per_task * static_cast<double>(i + 1);
  }
  return c;
}

std::vector<double> MakeLinearWeights(int k) {
  std::vector<double> w(static_cast<size_t>(k), 0.0);
  for (int i = 0; i < k; ++i) {
    w[static_cast<size_t>(i)] =
        1.0 - static_cast<double>(i) / static_cast<double>(k);
  }
  return w;
}

std::vector<double> MakeExponentialWeights(int k, double decay) {
  std::vector<double> w(static_cast<size_t>(k), 0.0);
  double value = 1.0;
  for (int i = 0; i < k; ++i) {
    w[static_cast<size_t>(i)] = value;
    value *= decay;
  }
  return w;
}

std::vector<double> MakeStepWeights(int k, double cutoff_fraction) {
  std::vector<double> w(static_cast<size_t>(k), 0.0);
  const int cutoff = static_cast<int>(
      std::ceil(cutoff_fraction * static_cast<double>(k)));
  for (int i = 0; i < k && i < cutoff; ++i) w[static_cast<size_t>(i)] = 1.0;
  return w;
}

std::string ValidateScheduleParams(const ScheduleParams& params) {
  if (params.num_reduce_tasks <= 0) {
    return "schedule: num_reduce_tasks must be positive, got " +
           std::to_string(params.num_reduce_tasks);
  }
  for (size_t i = 0; i < params.cost_vector.size(); ++i) {
    if (params.cost_vector[i] <= 0.0) {
      return "schedule: cost_vector values must be positive (c[" +
             std::to_string(i) + "] = " +
             std::to_string(params.cost_vector[i]) + ")";
    }
    if (i > 0 && params.cost_vector[i] <= params.cost_vector[i - 1]) {
      return "schedule: cost_vector must be strictly increasing (c[" +
             std::to_string(i - 1) + "] = " +
             std::to_string(params.cost_vector[i - 1]) + ", c[" +
             std::to_string(i) + "] = " +
             std::to_string(params.cost_vector[i]) + ")";
    }
  }
  if (!params.weights.empty() &&
      params.weights.size() != params.cost_vector.size()) {
    return "schedule: weights length " + std::to_string(params.weights.size()) +
           " does not match cost_vector length " +
           std::to_string(params.cost_vector.size());
  }
  return "";
}

std::string DescribeSchedule(const ProgressiveSchedule& schedule,
                             const std::vector<AnnotatedForest>& forests,
                             int blocks_per_task) {
  std::string out;
  char line[256];
  for (int t = 0; t < schedule.num_reduce_tasks; ++t) {
    const auto& units = schedule.task_units[static_cast<size_t>(t)];
    double cost = 0.0;
    std::unordered_set<uint64_t> trees;
    for (const MatchTask& unit : units) {
      const AnnotatedForest& forest =
          forests[static_cast<size_t>(unit.ref.family)];
      cost += forest.block(unit.ref.node).cost;
      trees.insert(BlockRefKey(unit.ref.family,
                               forest.FindTreeRoot(unit.ref.node)));
    }
    std::snprintf(line, sizeof(line),
                  "task %d: %zu trees, %zu blocks, est cost %.0f\n", t,
                  trees.size(), units.size(), cost);
    out += line;
    const int shown = std::min<int>(blocks_per_task,
                                    static_cast<int>(units.size()));
    for (int i = 0; i < shown; ++i) {
      const BlockRef& ref = units[static_cast<size_t>(i)].ref;
      const AnnotatedBlock& b =
          forests[static_cast<size_t>(ref.family)].block(ref.node);
      std::snprintf(line, sizeof(line),
                    "  #%d family=%d level=%d size=%lld util=%.4f cost=%.0f%s\n",
                    i, ref.family, b.id.level,
                    static_cast<long long>(b.size), b.util, b.cost,
                    b.tree_root ? " [root]" : "");
      out += line;
    }
  }
  return out;
}

double TotalEstimatedCost(const std::vector<AnnotatedForest>& forests) {
  double total = 0.0;
  for (const AnnotatedForest& forest : forests) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      if (!forest.block(n).eliminated) total += forest.block(n).cost;
    }
  }
  return total;
}

namespace {

// Appends one whole-block unit per block of the tree rooted at `root`.
void AppendTreeUnits(const AnnotatedForest& forest, int root,
                     std::vector<MatchTask>* units) {
  for (int n : forest.TreeBlocks(root)) {
    const AnnotatedBlock& b = forest.block(n);
    MatchTask unit;
    unit.ref = {forest.family(), n};
    unit.pairs = WindowPairCount(b.size, b.window);
    units->push_back(unit);
  }
}

// The tree schedulers (Sec. IV-C): split overflowed trees (kOurs only),
// then assign whole trees to reduce tasks. Returns each task's units, one
// kWhole unit per block of its trees, in assignment order.
std::vector<std::vector<MatchTask>> AssignTrees(
    std::vector<AnnotatedForest>* forests, ScheduleParams p) {
  if (p.cost_vector.empty()) {
    p.cost_vector =
        MakeUniformCostVector(TotalEstimatedCost(*forests),
                              p.num_reduce_tasks, /*k=*/10);
  }
  if (p.weights.size() != p.cost_vector.size()) {
    p.weights = MakeLinearWeights(static_cast<int>(p.cost_vector.size()));
  }
  const int num_buckets = static_cast<int>(p.cost_vector.size());

  // ---- Step 1: split overflowed trees (GENERATE-SCHEDULE lines 2-7) ----
  std::vector<SlEntry> sl = BuildSl(*forests);
  BucketMap bucket_of;
  if (p.scheduler == TreeScheduler::kOurs) {
    while (true) {
      AssignBuckets(*forests, sl, p.cost_vector, p.num_reduce_tasks,
                    &bucket_of);

      // IDENTIFY-TREES: trees whose cost vector exceeds some bucket's
      // capacity and that still have a child to split.
      struct Overflowed {
        int family;
        int root;
        double excess;
      };
      std::vector<Overflowed> overflowed;
      for (AnnotatedForest& forest : *forests) {
        for (int root : forest.tree_roots()) {
          const std::vector<double> vc =
              SubtreeCostVector(forest, root, bucket_of, num_buckets);
          double excess = 0.0;
          for (int h = 0; h < num_buckets; ++h) {
            excess += std::max(0.0, vc[static_cast<size_t>(h)] -
                                        BucketCapacity(p.cost_vector, h));
          }
          if (excess > 0.0 &&
              !SortedInTreeChildren(forest, root).empty()) {
            overflowed.push_back({forest.family(), root, excess});
          }
        }
      }
      if (overflowed.empty()) break;
      std::sort(overflowed.begin(), overflowed.end(),
                [](const Overflowed& a, const Overflowed& b) {
                  if (a.excess != b.excess) return a.excess > b.excess;
                  if (a.family != b.family) return a.family < b.family;
                  return a.root < b.root;
                });

      int splits = 0;
      const int batch =
          std::min<int>(p.batch_size, static_cast<int>(overflowed.size()));
      for (int i = 0; i < batch; ++i) {
        AnnotatedForest& forest =
            (*forests)[static_cast<size_t>(overflowed[static_cast<size_t>(i)]
                                               .family)];
        splits += SplitTree(&forest, overflowed[static_cast<size_t>(i)].root,
                            bucket_of, p.cost_vector);
      }
      if (splits == 0) break;  // nothing splittable improved: stop
      RefreshSl(*forests, &sl);
    }
  }

  // ---- Step 2: partition trees among reduce tasks ----
  AssignBuckets(*forests, sl, p.cost_vector, p.num_reduce_tasks, &bucket_of);
  std::vector<TreeInfo> trees =
      CollectTrees(*forests, bucket_of, p.cost_vector, p.weights);

  std::vector<std::vector<MatchTask>> task_units(
      static_cast<size_t>(p.num_reduce_tasks));
  if (p.scheduler == TreeScheduler::kLpt) {
    // LPT: longest (total cost) first onto the least-loaded task.
    std::sort(trees.begin(), trees.end(),
              [](const TreeInfo& a, const TreeInfo& b) {
                if (a.total_cost != b.total_cost)
                  return a.total_cost > b.total_cost;
                if (a.root.family != b.root.family)
                  return a.root.family < b.root.family;
                return a.root.node < b.root.node;
              });
    std::vector<double> load(static_cast<size_t>(p.num_reduce_tasks), 0.0);
    for (const TreeInfo& tree : trees) {
      int best = 0;
      for (int t = 1; t < p.num_reduce_tasks; ++t) {
        if (load[static_cast<size_t>(t)] < load[static_cast<size_t>(best)]) {
          best = t;
        }
      }
      load[static_cast<size_t>(best)] += tree.total_cost;
      AppendTreeUnits((*forests)[static_cast<size_t>(tree.root.family)],
                      tree.root.node, &task_units[static_cast<size_t>(best)]);
    }
  } else {
    // ASSIGN-TREES: weighted-cost order onto the task with the largest
    // slack SK(R) (Sec. IV-C2).
    std::sort(trees.begin(), trees.end(),
              [](const TreeInfo& a, const TreeInfo& b) {
                if (a.weighted_cost != b.weighted_cost)
                  return a.weighted_cost > b.weighted_cost;
                if (a.root.family != b.root.family)
                  return a.root.family < b.root.family;
                return a.root.node < b.root.node;
              });
    std::vector<std::vector<double>> load(
        static_cast<size_t>(p.num_reduce_tasks),
        std::vector<double>(static_cast<size_t>(num_buckets) + 1, 0.0));
    // The overflow bucket participates in the slack computation with the
    // tail weight and the last real bucket's capacity; otherwise a tree
    // whose cost lies entirely past c_k would yield identical (zero) slack
    // on every task and all such trees would pile onto the first one,
    // creating a straggler.
    const double overflow_weight = p.weights.back() * 0.5;
    const double overflow_capacity =
        BucketCapacity(p.cost_vector, num_buckets - 1);
    std::vector<double> total_load(static_cast<size_t>(p.num_reduce_tasks),
                                   0.0);
    for (const TreeInfo& tree : trees) {
      int best = 0;
      double best_slack = std::numeric_limits<double>::lowest();
      for (int t = 0; t < p.num_reduce_tasks; ++t) {
        double slack = 0.0;
        for (int h = 0; h <= num_buckets; ++h) {
          if (tree.vc[static_cast<size_t>(h)] <= 0.0) continue;  // delta_h
          const double weight = h < num_buckets
                                    ? p.weights[static_cast<size_t>(h)]
                                    : overflow_weight;
          const double capacity = h < num_buckets
                                      ? BucketCapacity(p.cost_vector, h)
                                      : overflow_capacity;
          slack += weight * (capacity -
                             load[static_cast<size_t>(t)][static_cast<size_t>(h)]);
        }
        // Ties (e.g. two heavy trees occupying disjoint buckets, both seeing
        // untouched capacity everywhere) break toward the least-loaded task;
        // otherwise they would all stack onto the first task and create a
        // straggler.
        constexpr double kTieTolerance = 1e-9;
        if (slack > best_slack + kTieTolerance ||
            (slack > best_slack - kTieTolerance &&
             total_load[static_cast<size_t>(t)] <
                 total_load[static_cast<size_t>(best)])) {
          best_slack = std::max(best_slack, slack);
          best = t;
        }
      }
      for (size_t h = 0; h < tree.vc.size(); ++h) {
        load[static_cast<size_t>(best)][h] += tree.vc[h];
      }
      total_load[static_cast<size_t>(best)] += tree.total_cost;
      AppendTreeUnits((*forests)[static_cast<size_t>(tree.root.family)],
                      tree.root.node, &task_units[static_cast<size_t>(best)]);
    }
  }
  return task_units;
}

// Cuts `units` to its longest prefix whose estimated cost fits `budget`. A
// unit costs its block's estimate times its share of the block's candidate
// pairs; a whole-block unit costs exactly the block's estimate.
void CutToBudget(const std::vector<AnnotatedForest>& forests, double budget,
                 std::vector<MatchTask>* units) {
  double cumulative = 0.0;
  size_t keep = 0;
  for (; keep < units->size(); ++keep) {
    const MatchTask& unit = (*units)[keep];
    const AnnotatedBlock& b =
        forests[static_cast<size_t>(unit.ref.family)].block(unit.ref.node);
    double cost = b.cost;
    if (unit.kind != MatchTask::Kind::kWhole) {
      cost = cost * static_cast<double>(unit.pairs) /
             static_cast<double>(WindowPairCount(b.size, b.window));
    }
    cumulative += cost;
    if (cumulative > budget) break;
  }
  units->resize(keep);
}

// Numbers the units, SQ = task * range_per_task + position (visiting tasks
// and positions in order keeps each block's SQs ascending), and assigns
// every tree its dominance value.
void NumberUnits(const std::vector<AnnotatedForest>& forests,
                 ProgressiveSchedule* schedule) {
  size_t max_units = 1;
  for (const auto& units : schedule->task_units) {
    max_units = std::max(max_units, units.size());
  }
  schedule->range_per_task = static_cast<int64_t>(max_units) + 1;
  for (size_t t = 0; t < schedule->task_units.size(); ++t) {
    const auto& units = schedule->task_units[t];
    for (size_t i = 0; i < units.size(); ++i) {
      schedule->unit_sequences[BlockRefKey(units[i].ref)].push_back(
          static_cast<int64_t>(t) * schedule->range_per_task +
          static_cast<int64_t>(i));
    }
  }
  int32_t next_dom = 1;
  for (const AnnotatedForest& forest : forests) {
    for (int root : forest.tree_roots()) {
      schedule->dominance[BlockRefKey(forest.family(), root)] = next_dom++;
    }
  }
}

}  // namespace

ProgressiveSchedule GenerateSchedule(std::vector<AnnotatedForest>* forests,
                                     const ScheduleParams& params) {
  ProgressiveSchedule schedule;
  schedule.error = ValidateScheduleParams(params);
  if (!schedule.error.empty()) return schedule;
  schedule.num_reduce_tasks = params.num_reduce_tasks;
  switch (params.scheduler) {
    case TreeScheduler::kBlockSplit:
      schedule.task_units = AssignBlockSplit(CollectPairBlocks(*forests),
                                             params.num_reduce_tasks);
      schedule.pair_level = true;
      break;
    case TreeScheduler::kPairRange:
      schedule.task_units = AssignPairRange(CollectPairBlocks(*forests),
                                            params.num_reduce_tasks);
      schedule.pair_level = true;
      break;
    case TreeScheduler::kOurs:
    case TreeScheduler::kNoSplit:
    case TreeScheduler::kLpt:
      schedule.task_units = AssignTrees(forests, params);
      break;
  }
  for (std::vector<MatchTask>& units : schedule.task_units) {
    // PairRange keeps range order (canonical enumeration order): batch
    // semantics, documented — progressive utility ordering does not apply.
    if (params.scheduler != TreeScheduler::kPairRange) {
      OrderUnitsBottomUp(*forests, &units);
    }
    if (params.per_task_budget > 0.0) {
      CutToBudget(*forests, params.per_task_budget, &units);
    }
  }
  NumberUnits(*forests, &schedule);
  return schedule;
}

}  // namespace progres
