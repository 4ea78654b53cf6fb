// Arena, Random, RateLimiter, ThreadPool, Slice, Status, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>

#include "util/arena.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/rate_limiter.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace elmo {
namespace {

TEST(Arena, SmallAllocations) {
  Arena arena;
  std::vector<std::pair<char*, size_t>> allocated;
  Random rnd(301);
  for (int i = 0; i < 1000; i++) {
    size_t size = 1 + rnd.Uniform(100);
    char* p = arena.Allocate(size);
    memset(p, i % 256, size);
    allocated.emplace_back(p, size);
  }
  // No overlap corruption: each block still holds its fill byte.
  for (size_t i = 0; i < allocated.size(); i++) {
    auto [p, size] = allocated[i];
    for (size_t j = 0; j < size; j++) {
      ASSERT_EQ(static_cast<char>(i % 256), p[j]);
    }
  }
  EXPECT_GT(arena.MemoryUsage(), 1000u);
}

TEST(Arena, LargeAllocationsGetDedicatedBlocks) {
  Arena arena;
  char* big = arena.Allocate(100000);
  memset(big, 7, 100000);
  char* small = arena.Allocate(16);
  memset(small, 9, 16);
  EXPECT_EQ(7, big[99999]);
  EXPECT_GE(arena.MemoryUsage(), 100000u);
}

TEST(Arena, AlignedAllocations) {
  Arena arena;
  for (int i = 0; i < 100; i++) {
    arena.Allocate(1);  // misalign the bump pointer
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) % 8);
  }
}

TEST(Random, DeterministicGivenSeed) {
  Random64 a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed_matches = true;
  for (int i = 0; i < 100; i++) {
    uint64_t va = a.Next();
    if (va != b.Next()) all_equal = false;
    if (va != c.Next()) any_diff_seed_matches = false;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_FALSE(any_diff_seed_matches);
}

TEST(Random, NextDoubleInUnitInterval) {
  Random64 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(0.5, sum / 10000, 0.02);
}

TEST(Random, UniformCoverage) {
  Random64 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) seen.insert(rng.Uniform(10));
  EXPECT_EQ(10u, seen.size());
}

TEST(RateLimiter, DisabledIsFree) {
  RateLimiter limiter(0);
  EXPECT_EQ(0u, limiter.Request(1 << 20, 0));
}

TEST(RateLimiter, EnforcesRate) {
  RateLimiter limiter(1 << 20);  // 1 MiB/s
  uint64_t now = 0;
  // First request is free; subsequent ones must wait ~1s per MiB.
  EXPECT_EQ(0u, limiter.Request(1 << 20, now));
  uint64_t wait = limiter.Request(1 << 20, now);
  EXPECT_NEAR(1000000.0, static_cast<double>(wait), 10000.0);
}

TEST(RateLimiter, CatchesUpAfterIdle) {
  RateLimiter limiter(1 << 20);
  limiter.Request(1 << 20, 0);
  limiter.Request(1 << 20, 0);
  // Long idle: bucket refills, no wait.
  EXPECT_EQ(0u, limiter.Request(1024, 100000000));
}

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(100, count.load());
}

TEST(ThreadPool, WaitIdleWaitsForRunningJob) {
  ThreadPool pool(1);
  std::atomic<bool> done{false};
  pool.Submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true);
  });
  pool.WaitIdle();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPool, GrowsOnDemand) {
  ThreadPool pool(1);
  pool.SetBackgroundThreads(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; i++) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(50, count.load());
}

// Submits `jobs` jobs that each wait, up to `deadline`, for a second job
// to run beside them; returns the most jobs ever seen running at once.
int MaxConcurrentJobs(ThreadPool* pool, int jobs,
                      std::chrono::milliseconds deadline) {
  std::mutex mu;
  std::condition_variable cv;
  int running = 0;
  int max_running = 0;
  for (int i = 0; i < jobs; i++) {
    pool->Submit([&] {
      std::unique_lock<std::mutex> l(mu);
      running++;
      max_running = std::max(max_running, running);
      cv.notify_all();
      cv.wait_for(l, deadline, [&] { return max_running > 1; });
      running--;
    });
  }
  pool->WaitIdle();
  return max_running;
}

TEST(ThreadPool, ShrinksThenGrowsAgain) {
  ThreadPool pool(4);
  pool.SetBackgroundThreads(1);
  // One worker left: no job ever finds a partner before its deadline.
  EXPECT_EQ(1, MaxConcurrentJobs(&pool, 3, std::chrono::milliseconds(200)));
  // Growing counts live workers, not every thread the pool ever started.
  pool.SetBackgroundThreads(2);
  EXPECT_EQ(2, MaxConcurrentJobs(&pool, 2, std::chrono::seconds(30)));
}

TEST(Slice, Basics) {
  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("hello!"));
  s.remove_prefix(2);
  EXPECT_EQ("llo", s.ToString());
  s.remove_suffix(1);
  EXPECT_EQ("ll", s.ToString());
}

TEST(Slice, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(0, Slice("a").compare(Slice("a")));
  EXPECT_LT(Slice("a").compare(Slice("aa")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(Status, Categories) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ("OK", Status::OK().ToString());
  Status nf = Status::NotFound("key", "k1");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ("NotFound: key: k1", nf.ToString());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

TEST(Status, CopyPreservesMessage) {
  Status a = Status::Corruption("bad block");
  Status b = a;
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(Logging, BufferLoggerCapturesFormatted) {
  BufferLogger logger;
  logger.Log(LogLevel::kInfo, "value=%d name=%s", 42, "x");
  logger.Log(LogLevel::kDebug, "hidden");  // below min level
  std::string all = logger.Contents();
  EXPECT_NE(all.find("value=42 name=x"), std::string::npos);
  EXPECT_EQ(all.find("hidden"), std::string::npos);
}

TEST(Logging, LongMessagesNotTruncated) {
  BufferLogger logger;
  std::string big(5000, 'y');
  logger.Log(LogLevel::kInfo, "%s", big.c_str());
  EXPECT_NE(logger.Contents().find(big), std::string::npos);
}

TEST(Logging, BufferLoggerCapDropsOldestAndCounts) {
  BufferLogger logger(LogLevel::kInfo, /*max_lines=*/3);
  for (int i = 0; i < 10; i++) {
    logger.Log(LogLevel::kInfo, "line %d", i);
  }
  EXPECT_EQ(logger.dropped_lines(), 7u);

  // Only the newest max_lines survive, in order.
  std::vector<std::string> lines = logger.TakeLines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("line 7"), std::string::npos);
  EXPECT_NE(lines[1].find("line 8"), std::string::npos);
  EXPECT_NE(lines[2].find("line 9"), std::string::npos);

  // TakeLines drains the buffer but the drop counter is cumulative.
  EXPECT_TRUE(logger.TakeLines().empty());
  EXPECT_EQ(logger.dropped_lines(), 7u);

  // Below-threshold lines neither occupy the ring nor count as dropped.
  logger.Log(LogLevel::kDebug, "invisible");
  EXPECT_TRUE(logger.TakeLines().empty());
  EXPECT_EQ(logger.dropped_lines(), 7u);
}

}  // namespace
}  // namespace elmo
