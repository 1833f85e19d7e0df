#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace squid {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation 'x'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: relation 'x'");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::NotSupported("").code(),    Status::Corruption("").code(),
      Status::IoError("").code(),         Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(ResultTest, HoldsValueOnSuccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatusOnFailure) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> QuarterEven(int v) {
  SQUID_ASSIGN_OR_RETURN(int half, HalveEven(v));
  SQUID_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterEven(8).value(), 2);
  EXPECT_FALSE(QuarterEven(6).ok());  // 3 is odd at the second step
  EXPECT_FALSE(QuarterEven(5).ok());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleStaysInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(4);
  size_t low = 0, high = 0;
  const size_t n = 100;
  for (int i = 0; i < 20000; ++i) {
    size_t r = rng.Zipf(n, 1.1);
    ASSERT_LT(r, n);
    if (r < 10) ++low;
    if (r >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);  // heavy head
}

TEST(RngTest, ZipfZeroExponentIsRoughlyUniform) {
  Rng rng(5);
  std::vector<size_t> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 0.0)];
  for (size_t c : counts) {
    EXPECT_GT(c, 1500u);
    EXPECT_LT(c, 2500u);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 20);
    std::set<size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(sample.size(), 20u);
    EXPECT_EQ(distinct.size(), 20u);
    for (size_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(7);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 15);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(8);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  size_t mid = 0, last = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t pick = rng.WeightedIndex(weights);
    ASSERT_NE(pick, 0u);  // zero weight never picked
    if (pick == 1) ++mid;
    if (pick == 2) ++last;
  }
  EXPECT_GT(mid, last * 5);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---------- strings ----------

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n a \r "), "a");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Comedy", "comedy"));
  EXPECT_FALSE(EqualsIgnoreCase("Comedy", "Comed"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch sw;
  double a = sw.ElapsedSeconds();
  double b = sw.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

// ---------- ThreadPool: Post and the cooperative ParallelFor ----------

TEST(ThreadPoolTest, PostRunsInlineOnSingleThreadPool) {
  ThreadPool pool(1);
  bool ran = false;
  pool.Post([&] { ran = true; });
  EXPECT_TRUE(ran);  // serial pools run tasks synchronously
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Post([&] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 200;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(kN, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForNestsInsidePoolTasks) {
  // A fan-out inside a pool task (serve mode: per-candidate work inside a
  // request task) must complete even when every worker is busy.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::atomic<int> requests_done{0};
  for (int r = 0; r < 8; ++r) {
    pool.Post([&] {
      pool.ParallelFor(16, [&](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
      requests_done.fetch_add(1);
    });
  }
  while (requests_done.load() < 8) std::this_thread::yield();
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ParallelForSafeFromConcurrentCallers) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      pool.ParallelFor(50, [&](size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 50);
}

TEST(ThreadPoolTest, ParallelForStillWorksAlongsideTasks) {
  // ParallelFor and posted tasks share one queue; interleaving them must
  // not lose work.
  ThreadPool pool(4);
  std::atomic<int> tasks{0};
  for (int i = 0; i < 20; ++i) {
    pool.Post([&] { tasks.fetch_add(1, std::memory_order_relaxed); });
  }
  std::atomic<int> job{0};
  pool.ParallelFor(64, [&](size_t) { job.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(job.load(), 64);
  // Tasks drain by the time the pool winds down (checked in destructor test
  // above); here just wait for them.
  while (tasks.load() < 20) std::this_thread::yield();
  EXPECT_EQ(tasks.load(), 20);
}

}  // namespace
}  // namespace squid
