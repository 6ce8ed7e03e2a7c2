#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/tsv.h"
#include "mapreduce/trace.h"

namespace progres {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, SameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.UniformU64(17), 17u);
}

TEST(RngTest, UniformU64CoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformU64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.02);
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfTableTest, FavorsSmallIndexes) {
  Rng rng(23);
  const ZipfTable zipf(100, 1.2);
  int64_t first = 0;
  int64_t last = 0;
  for (int i = 0; i < 100000; ++i) {
    const int64_t v = zipf.Sample(&rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    if (v == 0) ++first;
    if (v == 99) ++last;
  }
  EXPECT_GT(first, 10 * (last + 1));
}

TEST(ZipfTableTest, SingleElement) {
  Rng rng(29);
  EXPECT_EQ(ZipfTable(1, 1.5).Sample(&rng), 0);
}

// The draw contract, checked against a CDF built here: each sample draws
// exactly one UniformDouble() u and returns the first index whose
// cumulative weight (1 / (i + 1)^s summed in index order, divided by the
// total) is >= u, found by a linear scan. Tables of different sizes and
// exponents are interleaved on one Rng, as the generators use them; an
// n <= 1 table returns 0 and leaves the stream untouched.
TEST(ZipfTableTest, MatchesIndependentCdfOnInterleavedDraws) {
  const std::vector<std::pair<int64_t, double>> params = {
      {2000, 1.1}, {11, 1.8}, {2000, 1.0}, {100, 1.2}, {1, 1.5}};
  std::vector<ZipfTable> tables;
  std::vector<std::vector<double>> cdfs;
  for (const auto& [n, s] : params) {
    tables.emplace_back(n, s);
    std::vector<double> cdf;
    double total = 0.0;
    for (int64_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), s);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
    cdfs.push_back(std::move(cdf));
  }

  Rng rng(31);
  for (int call = 0; call < 20000; ++call) {
    const size_t t = static_cast<size_t>(call) % params.size();
    Rng expected_rng = rng;
    int64_t expected = 0;
    if (params[t].first > 1) {
      const double u = expected_rng.UniformDouble();
      while (cdfs[t][static_cast<size_t>(expected)] < u) ++expected;
    }
    ASSERT_EQ(tables[t].Sample(&rng), expected)
        << "call " << call << ", Zipf(" << params[t].first << ", "
        << params[t].second << ")";
    ASSERT_EQ(Rng(rng).NextU64(), expected_rng.NextU64())
        << "call " << call << " drew a different number of values";
  }
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, PrefixShorterThanString) {
  EXPECT_EQ(Prefix("hello", 3), "hel");
}

TEST(StringUtilTest, PrefixLongerThanString) {
  EXPECT_EQ(Prefix("hi", 10), "hi");
}

TEST(StringUtilTest, PrefixEmpty) { EXPECT_EQ(Prefix("", 4), ""); }

TEST(StringUtilTest, AppendLowerAscii) {
  std::string out = "Q:";
  AppendLowerAscii("AbC xY-9\xc3\x89", &out);
  EXPECT_EQ(out, "Q:abc xy-9\xc3\x89");  // bytes >= 0x80 pass through
}

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  const auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, JoinInvertsSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, '\t'), "a\tb\tc");
  EXPECT_EQ(Join({}, ','), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "ello"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringUtilTest, ParseInt32WholeFieldOnly) {
  int32_t v = 0;
  EXPECT_TRUE(ParseInt32("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt32("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt32("2147483647", &v));
  EXPECT_EQ(v, 2147483647);
  for (const char* bad : {"", "x", "1x", " 1", "1 ", "+1", "2147483648",
                          "-2147483649", "1.5"}) {
    EXPECT_FALSE(ParseInt32(bad, &v)) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------- tsv

TEST(TsvTest, RoundTrip) {
  const std::string path = testing::TempDir() + "/progres_tsv_test.tsv";
  const std::vector<std::vector<std::string>> rows = {
      {"a", "b", "c"}, {"1", "", "3"}, {"only"}};
  ASSERT_TRUE(WriteTsv(path, rows));
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(ReadTsv(path, &read));
  EXPECT_EQ(read, rows);
  std::remove(path.c_str());
}

TEST(TsvTest, ReadMissingFileFails) {
  std::vector<std::vector<std::string>> rows;
  EXPECT_FALSE(ReadTsv("/nonexistent/progres.tsv", &rows));
}

// ---------------------------------------------------------------- time

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotone) {
  Stopwatch stopwatch;
  const double first = stopwatch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  const double second = stopwatch.ElapsedSeconds();
  EXPECT_GE(second, first);
  stopwatch.Reset();
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(3);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadFallback) {
  ThreadPool pool(0);  // clamped to 1
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

// Stress: many tiny tasks, submitted concurrently from several producer
// threads while the pool is draining, each recording into one shared
// TraceRecorder. Run under the PROGRES_TSAN CI job this exercises both the
// pool's submit/drain synchronization and the recorder's locked merge path
// (concurrent RecordSpan/RecordInstant against snapshot reads).
TEST(ThreadPoolTest, StressTinyTasksWithConcurrentSubmitters) {
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 500;
  ThreadPool pool(8);
  TraceRecorder recorder;
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &recorder, &executed, s] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        pool.Submit([&recorder, &executed, s, i] {
          TraceSpan span;
          span.task = s * kTasksPerSubmitter + i;
          span.slot = s;
          span.start = i;
          span.end = i + 1;
          recorder.RecordSpan(span);
          if (i % 100 == 0) {
            TraceInstant instant;
            instant.machine = s;
            instant.time = i;
            recorder.RecordInstant(instant);
          }
          executed.fetch_add(1);
        });
        if (i % 50 == 0) {
          // Concurrent snapshot reads race against the writers above;
          // TSan flags any unlocked access inside the recorder.
          (void)recorder.spans().size();
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksPerSubmitter);
  EXPECT_EQ(recorder.spans().size(),
            static_cast<size_t>(kSubmitters * kTasksPerSubmitter));
  EXPECT_EQ(recorder.instants().size(),
            static_cast<size_t>(kSubmitters * (kTasksPerSubmitter / 100)));
  EXPECT_FALSE(recorder.ToChromeJson().empty());
  EXPECT_FALSE(recorder.ToSlotTimeline().empty());
}

}  // namespace
}  // namespace progres
