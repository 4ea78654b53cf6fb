// Workload trace capture and replay: binary round-trip, CRC corruption
// detection, and the headline guarantee — a trace captured on one DB
// replays to an identical key set on a fresh DB, even on different
// simulated hardware.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_kit/trace_replay.h"
#include "env/mem_env.h"
#include "env/sim_env.h"
#include "lsm/db.h"
#include "lsm/trace.h"

namespace elmo::lsm {
namespace {

TEST(TraceTest, WriterReaderRoundTrip) {
  MemEnv env;
  TraceWriter writer(&env);
  ASSERT_TRUE(writer.Start("/trace", /*base_ts_us=*/1000).ok());
  writer.AddRecord(TraceOp::kPut, 1010, 7, "alpha", 128);
  writer.AddRecord(TraceOp::kDelete, 1020, 7, "beta", 0);
  writer.AddRecord(TraceOp::kGet, 1030, 9, "gamma", 0);
  EXPECT_EQ(writer.records(), 3u);
  ASSERT_TRUE(writer.Stop(nullptr).ok());

  TraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/trace").ok());
  EXPECT_EQ(reader.base_ts_us(), 1000u);

  TraceRecord rec;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(rec.op, TraceOp::kPut);
  EXPECT_EQ(rec.ts_us, 1010u);
  EXPECT_EQ(rec.thread_id, 7u);
  EXPECT_EQ(rec.key, "alpha");
  EXPECT_EQ(rec.value_size, 128u);

  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_EQ(rec.op, TraceOp::kDelete);
  EXPECT_EQ(rec.key, "beta");

  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_EQ(rec.op, TraceOp::kGet);
  EXPECT_EQ(rec.key, "gamma");

  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST(TraceTest, CorruptionDetected) {
  MemEnv env;
  TraceWriter writer(&env);
  ASSERT_TRUE(writer.Start("/trace", 0).ok());
  writer.AddRecord(TraceOp::kPut, 10, 1, "somekey", 64);
  ASSERT_TRUE(writer.Stop(nullptr).ok());

  std::string contents;
  ASSERT_TRUE(env.ReadFileToString("/trace", &contents).ok());
  contents[contents.size() - 3] ^= 0x40;  // flip a bit inside the key
  ASSERT_TRUE(
      env.WriteStringToFile(Slice(contents), "/trace", false).ok());

  TraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/trace").ok());
  TraceRecord rec;
  bool eof = false;
  Status s = reader.Next(&rec, &eof);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(TraceTest, NotATraceFileRejected) {
  MemEnv env;
  ASSERT_TRUE(
      env.WriteStringToFile(Slice("plainly not a trace"), "/x", false).ok());
  TraceReader reader(&env);
  EXPECT_TRUE(reader.Open("/x").IsCorruption());
}

// Count user keys via a full iterator scan.
uint64_t CountKeys(DB* db) {
  uint64_t n = 0;
  auto it = db->NewIterator({});
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  return n;
}

TEST(TraceTest, CapturedFillReplaysToIdenticalKeyCount) {
  // Capture a fillrandom-style workload on NVMe-backed sim hardware.
  auto hw_fast = HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw_fast, /*seed=*/21);
  Options o;
  o.env = env.get();
  o.create_if_missing = true;
  o.write_buffer_size = 256 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/src", &db).ok());

  ASSERT_TRUE(db->StartTrace("/trace").ok());
  EXPECT_TRUE(db->StartTrace("/other").IsBusy());

  const std::string value(256, 'v');
  for (int i = 0; i < 5000; i++) {
    char key[32];
    // Overlapping writes: replay must preserve, not inflate, the count.
    snprintf(key, sizeof(key), "%016d", i % 4000);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  for (int i = 0; i < 100; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i);
    ASSERT_TRUE(db->Delete({}, key).ok());
  }
  std::string unused;
  db->Get({}, "0000000000000200", &unused);  // traced read
  ASSERT_TRUE(db->EndTrace().ok());
  EXPECT_TRUE(db->EndTrace().IsInvalidArgument());
  db->WaitForBackgroundWork();
  const uint64_t source_keys = CountKeys(db.get());
  EXPECT_EQ(source_keys, 4000u - 100u);
  db.reset();

  // Replay on a fresh DB on much slower hardware, full speed.
  auto hw_slow = HardwareProfile::Make(1, 2, DeviceModel::SataHdd());
  auto env2 = std::make_unique<SimEnv>(hw_slow, /*seed=*/99);
  // Move the trace bytes across environments.
  std::string trace_bytes;
  ASSERT_TRUE(env->ReadFileToString("/trace", &trace_bytes).ok());
  ASSERT_TRUE(
      env2->WriteStringToFile(Slice(trace_bytes), "/trace", false).ok());

  Options o2;
  o2.env = env2.get();
  o2.create_if_missing = true;
  std::unique_ptr<DB> db2;
  ASSERT_TRUE(DB::Open(o2, "/dst", &db2).ok());

  bench::ReplayStats rs;
  Status s = bench::ReplayTrace(env2.get(), "/trace", db2.get(),
                                /*preserve_timing=*/false, &rs);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rs.puts, 5000u);
  EXPECT_EQ(rs.deletes, 100u);
  EXPECT_EQ(rs.gets, 1u);
  EXPECT_EQ(rs.ops, 5101u);
  EXPECT_EQ(rs.failed, 0u);

  db2->WaitForBackgroundWork();
  EXPECT_EQ(CountKeys(db2.get()), source_keys);
  db2.reset();
}

TEST(TraceTest, TimedReplayPreservesVirtualSpan) {
  MemEnv env;
  TraceWriter writer(&env);
  ASSERT_TRUE(writer.Start("/trace", 0).ok());
  // Two ops 2 virtual seconds apart.
  writer.AddRecord(TraceOp::kPut, 0, 1, "a", 16);
  writer.AddRecord(TraceOp::kPut, 2'000'000, 1, "b", 16);
  ASSERT_TRUE(writer.Stop(nullptr).ok());

  auto hw = HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd());
  auto sim = std::make_unique<SimEnv>(hw, 5);
  std::string bytes;
  ASSERT_TRUE(env.ReadFileToString("/trace", &bytes).ok());
  ASSERT_TRUE(sim->WriteStringToFile(Slice(bytes), "/trace", false).ok());

  Options o;
  o.env = sim.get();
  o.create_if_missing = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());

  bench::ReplayStats rs;
  ASSERT_TRUE(bench::ReplayTrace(sim.get(), "/trace", db.get(),
                                 /*preserve_timing=*/true, &rs)
                  .ok());
  EXPECT_EQ(rs.trace_span_us, 2'000'000u);
  // The replay slept out the recorded gap on the virtual clock.
  EXPECT_GE(rs.replay_elapsed_us, 2'000'000u);
  db.reset();
}

}  // namespace
}  // namespace elmo::lsm
