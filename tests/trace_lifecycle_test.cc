// The lifecycle every binary trace shares (util/record_file.h
// RecordTrace), checked for each of the four traces — workload, IO,
// block-cache and span — through the tracer classes and through the DB
// methods: a second start is Busy, a stop with nothing active is
// InvalidArgument, the record count matches the file exactly, a restart
// after a stop writes a fresh file, and an append after a stop is
// dropped. A race test cycles start/stop while four threads append.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/io_trace.h"
#include "env/mem_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/span.h"
#include "lsm/trace.h"
#include "table/block_cache_tracer.h"
#include "util/json.h"
#include "util/string_util.h"

namespace elmo {
namespace {

// One trace kind: its tracer and reader, how to start it and append one
// record, and its DB methods and LOG end event.
struct WorkloadTrace {
  using Tracer = lsm::TraceWriter;
  using Reader = lsm::TraceReader;
  using Record = lsm::TraceRecord;
  static Status Start(Tracer* t, const std::string& path) {
    return t->Start(path, 0);
  }
  static void Append(Tracer* t) {
    t->AddRecord(lsm::TraceOp::kPut, 10, 1, "key", 8);
  }
  static Status DbStart(lsm::DB* db, const std::string& path) {
    return db->StartTrace(path);
  }
  static Status DbEnd(lsm::DB* db) { return db->EndTrace(); }
  static constexpr const char* kEndEvent = "trace_end";
};

struct IOTrace {
  using Tracer = IOTracer;
  using Reader = IOTraceReader;
  using Record = IOTraceRecord;
  static Status Start(Tracer* t, const std::string& path) {
    return t->Start(path, 0);
  }
  static void Append(Tracer* t) {
    IOTraceRecord rec;
    rec.len = 4096;
    rec.fname = "/db/000001.sst";
    t->AddRecord(rec);
  }
  static Status DbStart(lsm::DB* db, const std::string& path) {
    return db->StartIOTrace(path);
  }
  static Status DbEnd(lsm::DB* db) { return db->EndIOTrace(); }
  static constexpr const char* kEndEvent = "io_trace_end";
};

struct BlockCacheTrace {
  using Tracer = BlockCacheTracer;
  using Reader = BlockCacheTraceReader;
  using Record = BlockCacheAccessRecord;
  static Status Start(Tracer* t, const std::string& path) {
    return t->Start(path, 0);
  }
  static void Append(Tracer* t) {
    t->Record(TraceBlockType::kData, false, true, 0, 1, 0, 100);
  }
  static Status DbStart(lsm::DB* db, const std::string& path) {
    return db->StartBlockCacheTrace(path);
  }
  static Status DbEnd(lsm::DB* db) { return db->EndBlockCacheTrace(); }
  static constexpr const char* kEndEvent = "block_cache_trace_end";
};

struct SpanTrace {
  using Tracer = lsm::SpanTracer;
  using Reader = lsm::SpanTraceReader;
  using Record = lsm::SpanTree;
  // Threshold 0: every tree is slow, so every Consume writes a record.
  static Status Start(Tracer* t, const std::string& path) {
    return t->Start(path, {0, 0}, 0);
  }
  static void Append(Tracer* t) {
    static const lsm::SpanTree tree = [] {
      lsm::SpanTree tr;
      tr.spans.resize(1);
      tr.spans[0].duration_us = 5;
      return tr;
    }();
    t->Consume(tree);
  }
  static Status DbStart(lsm::DB* db, const std::string& path) {
    return db->StartSpanTrace(path, {0, 0});
  }
  static Status DbEnd(lsm::DB* db) { return db->EndSpanTrace(); }
  static constexpr const char* kEndEvent = "span_trace_end";
};

// Records in the trace at `path`; fails the test on a corrupt record.
template <typename T>
uint64_t CountRecords(Env* env, const std::string& path) {
  typename T::Reader reader(env);
  Status s = reader.Open(path);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  if (!s.ok()) return 0;
  uint64_t n = 0;
  typename T::Record rec;
  bool eof = false;
  while (true) {
    s = reader.Next(&rec, &eof);
    EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
    if (!s.ok() || eof) return n;
    n++;
  }
}

// The "records" field of every `event` in the DB's JSONL LOG, in order.
std::vector<uint64_t> LoggedRecordCounts(Env* env, const std::string& dbname,
                                         const std::string& event) {
  std::string contents;
  EXPECT_TRUE(env->ReadFileToString(InfoLogFileName(dbname), &contents)
                  .ok());
  std::vector<uint64_t> counts;
  for (const std::string& line : SplitLines(contents)) {
    json::Value doc;
    if (line.empty() || !json::Parse(line, &doc).ok()) continue;
    const json::Value* name = doc.Find("event");
    if (name == nullptr || name->as_string() != event) continue;
    const json::Value* records = doc.Find("records");
    EXPECT_NE(records, nullptr) << line;
    if (records != nullptr) {
      counts.push_back(static_cast<uint64_t>(records->as_int()));
    }
  }
  return counts;
}

template <typename T>
class TraceLifecycleTest : public ::testing::Test {};

using TraceKinds =
    ::testing::Types<WorkloadTrace, IOTrace, BlockCacheTrace, SpanTrace>;
TYPED_TEST_SUITE(TraceLifecycleTest, TraceKinds);

TYPED_TEST(TraceLifecycleTest, TracerStartStopCountRestartDrop) {
  using T = TypeParam;
  MemEnv env;
  typename T::Tracer tracer(&env);
  EXPECT_FALSE(tracer.active());
  EXPECT_TRUE(tracer.Stop(nullptr).IsInvalidArgument());
  T::Append(&tracer);  // nothing active: dropped
  EXPECT_EQ(tracer.records(), 0u);

  ASSERT_TRUE(T::Start(&tracer, "/trace").ok());
  EXPECT_TRUE(tracer.active());
  const Status busy = T::Start(&tracer, "/other");
  EXPECT_TRUE(busy.IsBusy()) << busy.ToString();
  EXPECT_NE(busy.ToString().find("already active"), std::string::npos);
  EXPECT_FALSE(env.FileExists("/other"));

  for (int i = 0; i < 5; i++) T::Append(&tracer);
  EXPECT_EQ(tracer.records(), 5u);
  uint64_t records = 0;
  ASSERT_TRUE(tracer.Stop(&records).ok());
  EXPECT_EQ(records, 5u);
  EXPECT_FALSE(tracer.active());
  const Status none = tracer.Stop(&records);
  EXPECT_TRUE(none.IsInvalidArgument()) << none.ToString();
  EXPECT_NE(none.ToString().find("active"), std::string::npos);

  T::Append(&tracer);  // after the stop: dropped
  EXPECT_EQ(tracer.records(), 5u);
  EXPECT_EQ(CountRecords<T>(&env, "/trace"), 5u);

  // A restart truncates the file and restarts the count.
  ASSERT_TRUE(T::Start(&tracer, "/trace").ok());
  EXPECT_EQ(tracer.records(), 0u);
  T::Append(&tracer);
  T::Append(&tracer);
  ASSERT_TRUE(tracer.Stop(&records).ok());
  EXPECT_EQ(records, 2u);
  EXPECT_EQ(CountRecords<T>(&env, "/trace"), 2u);
}

// Runs enough engine work that every trace kind records something:
// writes (WAL IO, workload records), a flush, and point reads served
// from the SST (block-cache lookups).
void DriveDb(lsm::DB* db, int base) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        db->Put({}, "key" + std::to_string(base + i), std::string(100, 'v'))
            .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  std::string value;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db->Get({}, "key" + std::to_string(base + i), &value).ok());
  }
}

TYPED_TEST(TraceLifecycleTest, DbMethodsShareTheLifecycle) {
  using T = TypeParam;
  MemEnv env;
  lsm::Options options;
  options.env = &env;
  options.create_if_missing = true;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(options, "/db", &db).ok());

  EXPECT_TRUE(T::DbEnd(db.get()).IsInvalidArgument());
  ASSERT_TRUE(T::DbStart(db.get(), "/first").ok());
  EXPECT_TRUE(T::DbStart(db.get(), "/second").IsBusy());
  DriveDb(db.get(), 0);
  ASSERT_TRUE(T::DbEnd(db.get()).ok());
  EXPECT_TRUE(T::DbEnd(db.get()).IsInvalidArgument());
  const uint64_t first = CountRecords<T>(&env, "/first");
  EXPECT_GT(first, 0u);

  DriveDb(db.get(), 100);  // after the stop: nothing reaches the file
  EXPECT_EQ(CountRecords<T>(&env, "/first"), first);

  ASSERT_TRUE(T::DbStart(db.get(), "/first").ok());  // restart: fresh file
  DriveDb(db.get(), 200);
  ASSERT_TRUE(T::DbEnd(db.get()).ok());
  const uint64_t second = CountRecords<T>(&env, "/first");
  EXPECT_GT(second, 0u);
  db.reset();

  // Each stop logged exactly the count its file holds; the failed stops
  // logged nothing.
  EXPECT_EQ(LoggedRecordCounts(&env, "/db", T::kEndEvent),
            (std::vector<uint64_t>{first, second}));
}

TYPED_TEST(TraceLifecycleTest, AppendsRaceStartStop) {
  using T = TypeParam;
  MemEnv env;
  typename T::Tracer tracer(&env);
  constexpr int kCycles = 40;
  std::atomic<bool> done{false};
  std::vector<std::thread> appenders;
  for (int t = 0; t < 4; t++) {
    appenders.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) T::Append(&tracer);
    });
  }
  std::vector<uint64_t> written(kCycles, 0);
  for (int i = 0; i < kCycles; i++) {
    ASSERT_TRUE(T::Start(&tracer, "/race" + std::to_string(i)).ok());
    // Let some appends land, so the stop races appenders mid-stream.
    for (int spin = 0; spin < 100000 && tracer.records() < 8; spin++) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(tracer.Stop(&written[i]).ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : appenders) t.join();
  uint64_t total = 0;
  for (uint64_t n : written) total += n;
  EXPECT_GT(total, 0u);

  // Every file parses whole and holds exactly the count its stop saw.
  for (int i = 0; i < kCycles; i++) {
    EXPECT_EQ(CountRecords<T>(&env, "/race" + std::to_string(i)), written[i])
        << "cycle " << i;
  }
}

}  // namespace
}  // namespace elmo
