// Span tracing: collector tree assembly (including nested roots from
// inline background jobs), allocation-free steady-state collection,
// trees only for sinks that want them, per-thread aggregate totals that
// survive thread exit, tracer slow/sampled filtering, trace round-trip +
// corruption detection, per-Get cache counts under concurrent readers,
// the "elmo.perf" property, one wal_sync span per counted WAL sync, and the headline determinism guarantee — two
// same-seed SimEnv runs produce a byte-identical span trace.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "env/mem_env.h"
#include "env/sim_env.h"
#include "lsm/db.h"
#include "lsm/span.h"

// Sanitizer runtimes supply their own operator new; the allocation
// count below replaces it only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPAN_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPAN_TEST_SANITIZED 1
#endif
#endif

namespace {
// operator new calls made by a thread while its flag is set.
thread_local bool t_count_allocations = false;
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#ifndef SPAN_TEST_SANITIZED
void* operator new(size_t size) {
  if (t_count_allocations) g_allocations.fetch_add(1);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// Out of line: inlined, gcc pairs the free() with the caller's `new`
// and warns (-Wmismatched-new-delete).
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
#endif

namespace elmo::lsm {
namespace {

// Buffers every consumed tree.
class CapturingSink : public SpanSink {
 public:
  void Consume(const SpanTree& tree) override { trees.push_back(tree); }
  std::vector<SpanTree> trees;
};

TEST(SpanCollectorTest, BuildsTreeWithChildrenAndAnnotations) {
  SpanCollector* c = GetSpanCollector();
  ASSERT_EQ(c->open_depth(), 0u);
  CapturingSink sink;

  const size_t root = c->OpenRoot(SpanKind::kWrite, 100, &sink);
  const size_t wal = c->OpenChild(SpanKind::kWalAppend, 110);
  c->Annotate(wal, SpanTag::kBytes, 512);
  c->Close(wal, 130);
  const size_t mem = c->OpenChild(SpanKind::kMemtableInsert, 140);
  c->Close(mem, 170);
  c->Annotate(root, SpanTag::kEntries, 3);
  c->Close(root, 200);

  ASSERT_EQ(sink.trees.size(), 1u);
  const SpanTree& t = sink.trees[0];
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.root().kind, SpanKind::kWrite);
  EXPECT_EQ(t.root().start_us, 100u);
  EXPECT_EQ(t.root().duration_us, 100u);
  EXPECT_EQ(t.spans[1].kind, SpanKind::kWalAppend);
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(t.spans[1].duration_us, 20u);
  ASSERT_EQ(t.spans[1].annotations.size(), 1u);
  EXPECT_EQ(t.spans[1].annotations[0].first, SpanTag::kBytes);
  EXPECT_EQ(t.spans[1].annotations[0].second, 512u);
  EXPECT_EQ(t.spans[2].kind, SpanKind::kMemtableInsert);
  // Root self time = 100 - (20 + 30).
  EXPECT_EQ(t.ChildrenDuration(0), 50u);
  EXPECT_EQ(t.SelfDuration(0), 50u);
  EXPECT_EQ(c->open_depth(), 0u);
}

// Counts consumed trees and their spans without keeping them.
class CountingSink : public SpanSink {
 public:
  void Consume(const SpanTree& tree) override {
    trees++;
    spans += tree.spans.size();
  }
  uint64_t trees = 0;
  uint64_t spans = 0;
};

TEST(SpanCollectorTest, SteadyStateCollectionDoesNotAllocate) {
#ifdef SPAN_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtime owns operator new";
#endif
  SpanCollector* c = GetSpanCollector();
  CountingSink sink;
  // A Get-shaped tree (three spans, four annotations) alternating with
  // a smaller Write-shaped one, so the delivered tree shrinks and grows.
  auto cycle = [c, &sink](uint64_t t) {
    const size_t get = c->OpenRoot(SpanKind::kGet, t, &sink);
    const size_t mem = c->OpenChild(SpanKind::kMemtableProbe, t + 1);
    c->Annotate(mem, SpanTag::kHit, 0);
    c->Close(mem, t + 2);
    const size_t sst = c->OpenChild(SpanKind::kSstProbe, t + 3);
    c->Annotate(sst, SpanTag::kFilesProbed, 1);
    c->Annotate(sst, SpanTag::kCacheHit, 1);
    c->Close(sst, t + 5);
    c->Annotate(get, SpanTag::kBytes, 100);
    c->Close(get, t + 6);

    const size_t write = c->OpenRoot(SpanKind::kWrite, t + 7, &sink);
    const size_t wal = c->OpenChild(SpanKind::kWalAppend, t + 8);
    c->Annotate(wal, SpanTag::kBytes, 64);
    c->Close(wal, t + 9);
    c->Close(write, t + 10);
  };
  for (uint64_t i = 0; i < 10; i++) cycle(i * 100);

  g_allocations.store(0);
  t_count_allocations = true;
  for (uint64_t i = 0; i < 1000; i++) cycle(10000 + i * 100);
  t_count_allocations = false;

  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(sink.trees, 2020u);
  EXPECT_EQ(sink.spans, 1010u * 5);
  EXPECT_EQ(c->open_depth(), 0u);
}

TEST(SpanCollectorTest, NestedRootIsExtractedAsItsOwnTree) {
  // A flush root opening inside a foreground write (SimEnv inline
  // background work) must be delivered separately, and the outer tree
  // must keep only its own spans.
  SpanCollector* c = GetSpanCollector();
  CapturingSink sink;

  const size_t write = c->OpenRoot(SpanKind::kWrite, 1000, &sink);
  const size_t wal = c->OpenChild(SpanKind::kWalAppend, 1010);
  c->Close(wal, 1020);

  const size_t flush = c->OpenRoot(SpanKind::kFlush, 1030, &sink);
  const size_t build = c->OpenChild(SpanKind::kTableBuild, 1040);
  c->Close(build, 1090);
  c->Close(flush, 1100);

  const size_t mem = c->OpenChild(SpanKind::kMemtableInsert, 1110);
  c->Close(mem, 1120);
  c->Close(write, 1150);

  ASSERT_EQ(sink.trees.size(), 2u);
  // Inner tree first (closed first), parents remapped to tree-local.
  const SpanTree& inner = sink.trees[0];
  ASSERT_EQ(inner.spans.size(), 2u);
  EXPECT_EQ(inner.root().kind, SpanKind::kFlush);
  EXPECT_EQ(inner.spans[1].kind, SpanKind::kTableBuild);
  EXPECT_EQ(inner.spans[1].parent, 0);

  const SpanTree& outer = sink.trees[1];
  ASSERT_EQ(outer.spans.size(), 3u);
  EXPECT_EQ(outer.root().kind, SpanKind::kWrite);
  EXPECT_EQ(outer.spans[1].kind, SpanKind::kWalAppend);
  EXPECT_EQ(outer.spans[2].kind, SpanKind::kMemtableInsert);
  EXPECT_EQ(c->open_depth(), 0u);
}

TEST(SpanCollectorTest, OrphanChildAndEscapedScopesAreSafe) {
  SpanCollector* c = GetSpanCollector();
  // No root open: children are no-ops.
  EXPECT_EQ(c->OpenChild(SpanKind::kWalSync, 10), SpanCollector::kNoSpan);
  c->Annotate(SpanCollector::kNoSpan, SpanTag::kBytes, 1);
  c->Close(SpanCollector::kNoSpan, 20);

  // A child left open when the root closes gets closed at that instant.
  CapturingSink sink;
  const size_t root = c->OpenRoot(SpanKind::kGet, 100, &sink);
  c->OpenChild(SpanKind::kSstProbe, 120);
  c->Close(root, 180);
  ASSERT_EQ(sink.trees.size(), 1u);
  ASSERT_EQ(sink.trees[0].spans.size(), 2u);
  EXPECT_EQ(sink.trees[0].spans[1].duration_us, 60u);
  EXPECT_EQ(c->open_depth(), 0u);
}

// A sink that would drop every tree.
class UnwantingSink : public CountingSink {
 public:
  bool WantsTrees() const override { return false; }
};

TEST(SpanCollectorTest, SinkThatWantsNoTreesGetsNoneButSpansAreCounted) {
  GlobalSpanAggregate()->Reset();
  SpanCollector* c = GetSpanCollector();
  UnwantingSink sink;
  for (uint64_t i = 0; i < 5; i++) {
    const size_t root = c->OpenRoot(SpanKind::kWrite, i * 100, &sink);
    const size_t wal = c->OpenChild(SpanKind::kWalAppend, i * 100 + 1);
    c->Annotate(wal, SpanTag::kBytes, 10);
    c->Close(wal, i * 100 + 3);
    c->Close(root, i * 100 + 4);
  }
  EXPECT_EQ(sink.trees, 0u);
  const SpanAggregate::Snapshot snap = GlobalSpanAggregate()->GetSnapshot();
  EXPECT_EQ(snap.Get(SpanKind::kWrite).count, 5u);
  EXPECT_EQ(snap.Get(SpanKind::kWrite).total_us, 20u);
  EXPECT_EQ(snap.Get(SpanKind::kWalAppend).count, 5u);
  EXPECT_EQ(snap.Get(SpanKind::kWalAppend).bytes, 50u);
  EXPECT_EQ(c->open_depth(), 0u);
}

// Four threads fold into their own cells. Three exit before the first
// snapshot and one is still alive, so the snapshot sums retired and live
// cells; the live one's totals survive its exit too.
TEST(SpanAggregateTest, PerThreadTotalsAreExactAndSurviveThreadExit) {
  SpanAggregate* agg = GlobalSpanAggregate();
  agg->Reset();
  constexpr int kThreads = 4;
  constexpr uint64_t kRoots = 2000;
  // Thread t's roots last t+1 us (its last one 1000+t), each with a
  // wal_append child of 1 us carrying t+1 bytes.
  auto close_roots = [](int t) {
    SpanCollector* c = GetSpanCollector();
    for (uint64_t i = 0; i < kRoots; i++) {
      const uint64_t start = i * 10000;
      const size_t root = c->OpenRoot(SpanKind::kWrite, start, nullptr);
      const size_t wal = c->OpenChild(SpanKind::kWalAppend, start);
      c->Annotate(wal, SpanTag::kBytes, static_cast<uint64_t>(t + 1));
      c->Close(wal, start + 1);
      const uint64_t dur = i + 1 == kRoots ? 1000 + t : t + 1;
      c->Close(root, start + dur);
    }
  };

  std::mutex mu;
  std::condition_variable cv;
  bool folded = false, release = false;
  std::thread live([&] {
    close_roots(kThreads - 1);
    std::unique_lock<std::mutex> l(mu);
    folded = true;
    cv.notify_all();
    cv.wait(l, [&] { return release; });
  });
  std::vector<std::thread> exited;
  for (int t = 0; t < kThreads - 1; t++) exited.emplace_back(close_roots, t);
  for (std::thread& th : exited) th.join();
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return folded; });
  }

  uint64_t total_us = 0, bytes = 0;
  for (int t = 0; t < kThreads; t++) {
    total_us += (kRoots - 1) * (t + 1) + 1000 + t;
    bytes += kRoots * (t + 1);
  }
  auto expect_exact = [&](const SpanAggregate::Snapshot& snap) {
    const SpanAggregate::KindTotals& w = snap.Get(SpanKind::kWrite);
    EXPECT_EQ(w.count, kThreads * kRoots);
    EXPECT_EQ(w.total_us, total_us);
    EXPECT_EQ(w.max_us, 1000u + kThreads - 1);
    EXPECT_EQ(w.bytes, 0u);
    const SpanAggregate::KindTotals& wal = snap.Get(SpanKind::kWalAppend);
    EXPECT_EQ(wal.count, kThreads * kRoots);
    EXPECT_EQ(wal.total_us, kThreads * kRoots);
    EXPECT_EQ(wal.max_us, 1u);
    EXPECT_EQ(wal.bytes, bytes);
  };
  expect_exact(agg->GetSnapshot());  // three retired, one live
  {
    std::lock_guard<std::mutex> l(mu);
    release = true;
  }
  cv.notify_all();
  live.join();
  expect_exact(agg->GetSnapshot());  // all four retired

  agg->Reset();
  const SpanAggregate::Snapshot zero = agg->GetSnapshot();
  for (uint8_t k = 0; k < kMaxSpanKind; k++) {
    EXPECT_EQ(zero.kinds[k].count, 0u) << int{k};
    EXPECT_EQ(zero.kinds[k].total_us, 0u) << int{k};
    EXPECT_EQ(zero.kinds[k].max_us, 0u) << int{k};
    EXPECT_EQ(zero.kinds[k].bytes, 0u) << int{k};
  }
}

TEST(SpanTracerTest, SlowThresholdAndDeterministicSampling) {
  MemEnv env;
  SpanTracer tracer(&env);
  SpanTraceOptions opts;
  opts.slow_op_threshold_us = 1000;
  opts.sample_every = 4;
  ASSERT_TRUE(tracer.Start("/span", opts, /*base_ts_us=*/0).ok());

  SpanCollector* c = GetSpanCollector();
  uint64_t now = 10000;
  // 10 fast writes (100us): sampling keeps ops 1, 5, 9.
  for (int i = 0; i < 10; i++) {
    const size_t h = c->OpenRoot(SpanKind::kWrite, now, &tracer);
    c->Close(h, now + 100);
    now += 1000;
  }
  // 2 slow writes (2000us): ops 11 and 12, not on the sample grid.
  for (int i = 0; i < 2; i++) {
    const size_t h = c->OpenRoot(SpanKind::kWrite, now, &tracer);
    c->Close(h, now + 2000);
    now += 3000;
  }
  EXPECT_EQ(tracer.records(), 5u);
  uint64_t written = 0;
  ASSERT_TRUE(tracer.Stop(&written).ok());
  EXPECT_EQ(written, 5u);
  EXPECT_TRUE(tracer.Stop(nullptr).IsInvalidArgument());

  SpanTraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/span").ok());
  int slow = 0, sampled = 0, trees = 0;
  SpanTree t;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.Next(&t, &eof).ok());
    if (eof) break;
    trees++;
    if (t.flags & kSpanTreeSlow) {
      slow++;
      EXPECT_EQ(t.root().duration_us, 2000u);
    }
    if (t.flags & kSpanTreeSampled) sampled++;
  }
  EXPECT_EQ(trees, 5);
  EXPECT_EQ(slow, 2);
  EXPECT_EQ(sampled, 3);
}

TEST(SpanTracerTest, ZeroThresholdCapturesEverything) {
  MemEnv env;
  SpanTracer tracer(&env);
  SpanTraceOptions opts;
  opts.slow_op_threshold_us = 0;
  opts.sample_every = 0;
  ASSERT_TRUE(tracer.Start("/span", opts, 0).ok());
  EXPECT_TRUE(tracer.Start("/other", opts, 0).IsBusy());

  SpanCollector* c = GetSpanCollector();
  for (int i = 0; i < 7; i++) {
    const size_t h = c->OpenRoot(SpanKind::kGet, 100 * i, &tracer);
    c->Close(h, 100 * i + 1);
  }
  EXPECT_EQ(tracer.records(), 7u);
  ASSERT_TRUE(tracer.Stop(nullptr).ok());
}

TEST(SpanTracerTest, WantsTreesOnlyWhileActive) {
  MemEnv env;
  SpanTracer tracer(&env);
  EXPECT_FALSE(tracer.WantsTrees());
  ASSERT_TRUE(tracer.Start("/span", {0, 0}, 0).ok());
  EXPECT_TRUE(tracer.WantsTrees());
  ASSERT_TRUE(tracer.Stop(nullptr).ok());
  EXPECT_FALSE(tracer.WantsTrees());
}

TEST(SpanTracerTest, CorruptionDetected) {
  MemEnv env;
  SpanTracer tracer(&env);
  ASSERT_TRUE(tracer.Start("/span", {0, 0}, 0).ok());
  SpanCollector* c = GetSpanCollector();
  const size_t h = c->OpenRoot(SpanKind::kWrite, 500, &tracer);
  const size_t child = c->OpenChild(SpanKind::kWalSync, 510);
  c->Annotate(child, SpanTag::kBytes, 4096);
  c->Close(child, 550);
  c->Close(h, 600);
  ASSERT_TRUE(tracer.Stop(nullptr).ok());

  std::string contents;
  ASSERT_TRUE(env.ReadFileToString("/span", &contents).ok());
  contents[contents.size() - 2] ^= 0x20;
  ASSERT_TRUE(env.WriteStringToFile(Slice(contents), "/span", false).ok());

  SpanTraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/span").ok());
  SpanTree t;
  bool eof = false;
  EXPECT_TRUE(reader.Next(&t, &eof).IsCorruption());

  // A non-trace file is rejected at Open.
  ASSERT_TRUE(env.WriteStringToFile(Slice("not a span trace at all"),
                                    "/junk", false)
                  .ok());
  SpanTraceReader reader2(&env);
  EXPECT_TRUE(reader2.Open("/junk").IsCorruption());
}

// One fixed workload against a DB on the given SimEnv; returns the raw
// span trace bytes.
std::string RunTracedWorkload(uint64_t seed, uint64_t* trees_out) {
  auto hw = HardwareProfile::Make(2, 2, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw, seed);
  Options o;
  o.env = env.get();
  o.create_if_missing = true;
  o.write_buffer_size = 64 << 10;  // force flushes (background roots)
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(o, "/db", &db).ok());

  SpanTraceOptions opts;
  opts.slow_op_threshold_us = 0;  // capture every op
  opts.sample_every = 0;
  EXPECT_TRUE(db->StartSpanTrace("/span.trace", opts).ok());
  EXPECT_TRUE(db->StartSpanTrace("/other.trace", opts).IsBusy());

  const std::string value(512, 'v');
  std::string out;
  for (int i = 0; i < 800; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%08d", i * 131 % 500);
    EXPECT_TRUE(db->Put({}, key, value).ok());
    if (i % 10 == 0) db->Get({}, key, &out);
  }
  auto it = db->NewIterator({});
  int scanned = 0;
  for (it->SeekToFirst(); it->Valid() && scanned < 50; it->Next()) scanned++;
  it.reset();
  EXPECT_TRUE(db->EndSpanTrace().ok());
  EXPECT_TRUE(db->EndSpanTrace().IsInvalidArgument());
  if (trees_out != nullptr) {
    // Count trees by replaying the trace.
    SpanTraceReader reader(env.get());
    EXPECT_TRUE(reader.Open("/span.trace").ok());
    SpanTree t;
    bool eof = false;
    uint64_t n = 0;
    while (reader.Next(&t, &eof).ok() && !eof) n++;
    *trees_out = n;
  }
  std::string bytes;
  EXPECT_TRUE(env->ReadFileToString("/span.trace", &bytes).ok());
  db.reset();
  return bytes;
}

TEST(SpanDbTest, SameSeedRunsProduceByteIdenticalTraces) {
  uint64_t trees_a = 0;
  const std::string a = RunTracedWorkload(77, &trees_a);
  const std::string b = RunTracedWorkload(77, nullptr);
  ASSERT_FALSE(a.empty());
  EXPECT_GT(trees_a, 800u);  // every op plus background jobs
  EXPECT_EQ(a, b);
}

TEST(SpanDbTest, TraceContainsExpectedTreeShapes) {
  auto hw = HardwareProfile::Make(2, 2, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw, 5);
  Options o;
  o.env = env.get();
  o.create_if_missing = true;
  o.write_buffer_size = 64 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  ASSERT_TRUE(db->StartSpanTrace("/span.trace", {0, 0}).ok());

  const std::string value(512, 'v');
  std::string out;
  for (int i = 0; i < 500; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%08d", i);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  db->FlushMemTable();
  for (int i = 0; i < 20; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%08d", i);
    db->Get({}, key, &out);
  }
  ASSERT_TRUE(db->EndSpanTrace().ok());

  SpanTraceReader reader(env.get());
  ASSERT_TRUE(reader.Open("/span.trace").ok());
  bool saw_write_with_wal = false, saw_get_with_probe = false;
  bool saw_flush_with_build = false;
  SpanTree t;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.Next(&t, &eof).ok());
    if (eof) break;
    ASSERT_FALSE(t.spans.empty());
    EXPECT_TRUE(IsRootSpanKind(t.root().kind));
    for (size_t i = 1; i < t.spans.size(); i++) {
      // Parents precede children and stay inside the tree.
      ASSERT_GE(t.spans[i].parent, 0);
      ASSERT_LT(static_cast<size_t>(t.spans[i].parent), i);
    }
    if (t.root().kind == SpanKind::kWrite) {
      for (size_t i = 1; i < t.spans.size(); i++) {
        if (t.spans[i].kind == SpanKind::kWalAppend) {
          saw_write_with_wal = true;
        }
      }
    }
    if (t.root().kind == SpanKind::kGet) {
      for (size_t i = 1; i < t.spans.size(); i++) {
        if (t.spans[i].kind == SpanKind::kMemtableProbe ||
            t.spans[i].kind == SpanKind::kSstProbe) {
          saw_get_with_probe = true;
        }
      }
    }
    if (t.root().kind == SpanKind::kFlush) {
      for (size_t i = 1; i < t.spans.size(); i++) {
        if (t.spans[i].kind == SpanKind::kTableBuild) {
          saw_flush_with_build = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_write_with_wal);
  EXPECT_TRUE(saw_get_with_probe);
  EXPECT_TRUE(saw_flush_with_build);
  db.reset();
}

std::string GetTestKey(int i) {
  char key[32];
  snprintf(key, sizeof(key), "key%06d", i);
  return key;
}

// A Get's sst_probe cache counts are its own thread's lookups. With one
// SST whose index and filter are pinned (the defaults), a Get of a
// present key looks up exactly one data block, however many Gets other
// threads run at the same time.
TEST(SpanDbTest, GetCacheCountsExcludeOtherThreads) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.create_if_missing = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put({}, GetTestKey(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
  int files = 0;
  for (int level = 0; level < o.num_levels; level++) {
    const std::string prop = "elmo.num-files-at-level" + std::to_string(level);
    std::string n;
    ASSERT_TRUE(db->GetProperty(prop, &n));
    files += std::stoi(n);
  }
  ASSERT_EQ(files, 1);

  ASSERT_TRUE(db->StartSpanTrace("/span.trace", {0, 0}).ok());
  std::atomic<bool> stop{false};
  std::thread other([&db, &stop] {
    std::string v;
    for (int i = 0; !stop.load(std::memory_order_relaxed); i++) {
      db->Get({}, GetTestKey(i * 13 % kKeys), &v);
    }
  });
  constexpr int kGets = 2000;
  std::string v;
  for (int i = 0; i < kGets; i++) {  // EXPECT: `other` must be joined
    EXPECT_TRUE(db->Get({}, GetTestKey(i * 7 % kKeys), &v).ok());
  }
  stop.store(true);
  other.join();
  ASSERT_TRUE(db->EndSpanTrace().ok());

  SpanTraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/span.trace").ok());
  const uint32_t self = SpanThreadId();
  int probes = 0;
  SpanTree t;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.Next(&t, &eof).ok());
    if (eof) break;
    if (t.thread_id != self || t.root().kind != SpanKind::kGet) continue;
    for (const SpanNode& n : t.spans) {
      if (n.kind != SpanKind::kSstProbe) continue;
      uint64_t lookups = 0;
      for (const auto& [tag, value] : n.annotations) {
        if (tag == SpanTag::kCacheHit || tag == SpanTag::kCacheMiss) {
          lookups += value;
        }
      }
      EXPECT_EQ(lookups, 1u) << "main-thread Get #" << probes;
      probes++;
    }
  }
  EXPECT_EQ(probes, kGets);
  db.reset();
}

// Pay for what you use: with the DB's tracer inactive no tree is
// assembled, yet every Put still lands exactly one write, wal_append and
// memtable_insert span in "elmo.perf"; once a trace starts, trees arrive
// again, and a write's memtable_insert opens where its wal_append closed.
TEST(SpanDbTest, InactiveTracerBuildsNoTreesButSpansAreCounted) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.create_if_missing = true;
  GlobalSpanAggregate()->Reset();  // no DB is open
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());

  constexpr int kPuts = 300;
  const std::string value(100, 'v');
  for (int i = 0; i < kPuts; i++) {
    ASSERT_TRUE(db->Put({}, GetTestKey(i), value).ok());
  }
  std::string prop;
  ASSERT_TRUE(db->GetProperty("elmo.perf", &prop));
  for (const char* line :
       {"span op write: count=300 ", "span phase wal_append: count=300 ",
        "span phase memtable_insert: count=300 "}) {
    EXPECT_NE(prop.find(line), std::string::npos) << line << "\n" << prop;
  }

  constexpr int kTraced = 50;
  ASSERT_TRUE(db->StartSpanTrace("/span.trace", {0, 0}).ok());
  for (int i = 0; i < kTraced; i++) {
    ASSERT_TRUE(db->Put({}, GetTestKey(kPuts + i), value).ok());
  }
  ASSERT_TRUE(db->EndSpanTrace().ok());
  const SpanAggregate::Snapshot snap = GlobalSpanAggregate()->GetSnapshot();
  EXPECT_EQ(snap.Get(SpanKind::kWrite).count, uint64_t{kPuts + kTraced});

  SpanTraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/span.trace").ok());
  int writes = 0;
  SpanTree t;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.Next(&t, &eof).ok());
    if (eof) break;
    if (t.root().kind != SpanKind::kWrite) continue;
    writes++;
    ASSERT_EQ(t.spans.size(), 3u);
    const SpanNode& wal = t.spans[1];
    const SpanNode& mem = t.spans[2];
    ASSERT_EQ(wal.kind, SpanKind::kWalAppend);
    ASSERT_EQ(mem.kind, SpanKind::kMemtableInsert);
    EXPECT_EQ(wal.start_us + wal.duration_us, mem.start_us);
  }
  EXPECT_EQ(writes, kTraced);
  db.reset();
}

// Both WAL-sync paths — sync=true writes and wal_bytes_per_sync range
// syncs — open one wal_sync span per counted sync and time it once.
TEST(SpanDbTest, WalSyncSpansMatchSyncTickers) {
  for (const bool range_sync : {false, true}) {
    SCOPED_TRACE(range_sync ? "range sync" : "sync=true");
    MemEnv env;
    Options o;
    o.env = &env;
    o.create_if_missing = true;
    if (range_sync) o.wal_bytes_per_sync = 1024;
    GlobalSpanAggregate()->Reset();  // no DB is open
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(o, "/db", &db).ok());

    constexpr int kPuts = 200;
    WriteOptions w;
    w.sync = !range_sync;
    const std::string value(100, 'v');
    for (int i = 0; i < kPuts; i++) {
      ASSERT_TRUE(db->Put(w, GetTestKey(i), value).ok());
    }
    const uint64_t syncs = db->stats().Get(Ticker::kWalSyncs);
    if (range_sync) {
      EXPECT_GT(syncs, 0u);
      EXPECT_LT(syncs, uint64_t{kPuts});
    } else {
      EXPECT_EQ(syncs, uint64_t{kPuts});
    }
    EXPECT_EQ(db->stats().HistogramCount(HistogramType::kWalSyncMicros),
              syncs);
    std::string prop;
    ASSERT_TRUE(db->GetProperty("elmo.perf", &prop));
    const std::string line =
        "span phase wal_sync: count=" + std::to_string(syncs) + " ";
    EXPECT_NE(prop.find(line), std::string::npos) << line << "\n" << prop;
    db.reset();
  }
}

TEST(SpanDbTest, PerfPropertyReportsSpansAndIteratorCounters) {
  auto hw = HardwareProfile::Make(2, 2, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw, 9);
  Options o;
  o.env = env.get();
  o.create_if_missing = true;
  // The aggregate is process-wide; start this test's counts from zero
  // (no DB is open yet, so no sampler baseline goes stale).
  GlobalSpanAggregate()->Reset();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());

  const std::string value(64, 'v');
  for (int i = 0; i < 100; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%08d", i);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  auto it = db->NewIterator({});
  it->Seek("00000050");
  int steps = 0;
  while (it->Valid() && steps < 10) {
    it->Next();
    steps++;
  }
  it.reset();

  const SpanAggregate::Snapshot snap = GlobalSpanAggregate()->GetSnapshot();
  EXPECT_EQ(snap.Get(SpanKind::kIterSeek).count, 1u);
  EXPECT_EQ(snap.Get(SpanKind::kIterNext).count, 10u);
  EXPECT_GT(snap.Get(SpanKind::kIterNext).bytes, 0u);

  std::string prop;
  ASSERT_TRUE(db->GetProperty("elmo.perf", &prop));
  EXPECT_NE(prop.find("span op iter_seek: count=1 "), std::string::npos)
      << prop;
  EXPECT_NE(prop.find("span op write:"), std::string::npos) << prop;
  EXPECT_NE(prop.find("span op iter_next: count=10 "), std::string::npos)
      << prop;
  EXPECT_NE(prop.find("span phase memtable_insert:"), std::string::npos)
      << prop;
  db.reset();
}

}  // namespace
}  // namespace elmo::lsm
