// IO tracing: classification, context scopes, writer/reader framing,
// corruption rejection, DB-level capture, and SimEnv determinism (two
// identical runs must produce byte-identical traces).
#include "env/io_trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_kit/io_analyzer.h"
#include "env/io_tracing_env.h"
#include "env/mem_env.h"
#include "env/sim_env.h"
#include "lsm/db.h"

namespace elmo {
namespace {

TEST(IOTraceClassify, FileKinds) {
  EXPECT_EQ(IOFileKind::kWal, ClassifyIOFileKind("/db/000005.log", false));
  EXPECT_EQ(IOFileKind::kSstData, ClassifyIOFileKind("/db/000007.sst", false));
  EXPECT_EQ(IOFileKind::kSstIndexFilter,
            ClassifyIOFileKind("/db/000007.sst", true));
  EXPECT_EQ(IOFileKind::kManifest,
            ClassifyIOFileKind("/db/MANIFEST-000002", false));
  EXPECT_EQ(IOFileKind::kInfoLog, ClassifyIOFileKind("/db/LOG", false));
  EXPECT_EQ(IOFileKind::kCurrent, ClassifyIOFileKind("/db/CURRENT", false));
  EXPECT_EQ(IOFileKind::kOther, ClassifyIOFileKind("/db/LOCK", false));
  EXPECT_EQ(IOFileKind::kOther, ClassifyIOFileKind("/db/io.trace", false));
  EXPECT_EQ(IOFileKind::kOther, ClassifyIOFileKind("abc.log", false));
}

TEST(IOTraceClassify, ContextScopesNest) {
  EXPECT_EQ(IOContextTag::kUnknown, CurrentIOContext());
  {
    IOContextScope outer(IOContextTag::kUserWrite);
    EXPECT_EQ(IOContextTag::kUserWrite, CurrentIOContext());
    {
      IOContextScope inner(IOContextTag::kFlush);
      EXPECT_EQ(IOContextTag::kFlush, CurrentIOContext());
    }
    EXPECT_EQ(IOContextTag::kUserWrite, CurrentIOContext());
  }
  EXPECT_EQ(IOContextTag::kUnknown, CurrentIOContext());
}

class IOTraceFileTest : public ::testing::Test {
 protected:
  IOTraceFileTest()
      : env_(HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd()), 42) {}

  IOTraceRecord MakeRecord(uint64_t i) {
    IOTraceRecord rec;
    rec.op = IOOp::kRead;
    rec.kind = IOFileKind::kSstData;
    rec.context = IOContextTag::kUserGet;
    rec.ts_us = 1000 + i;
    rec.offset = i * 4096;
    rec.len = 4096;
    rec.latency_us = 80 + i;
    rec.fname = "/db/000001.sst";
    return rec;
  }

  SimEnv env_;
};

TEST_F(IOTraceFileTest, WriteReadRoundTrip) {
  IOTracer tracer(&env_);
  ASSERT_TRUE(env_.CreateDirIfMissing("/t").ok());
  ASSERT_TRUE(tracer.Start("/t/io.trace", /*base_ts_us=*/999).ok());
  for (uint64_t i = 0; i < 10; i++) {
    tracer.AddRecord(MakeRecord(i));
  }
  EXPECT_EQ(10u, tracer.records());
  ASSERT_TRUE(tracer.Stop(nullptr).ok());

  IOTraceReader reader(&env_);
  ASSERT_TRUE(reader.Open("/t/io.trace").ok());
  EXPECT_EQ(999u, reader.base_ts_us());
  IOTraceRecord rec;
  bool eof = false;
  for (uint64_t i = 0; i < 10; i++) {
    ASSERT_TRUE(reader.Next(&rec, &eof).ok());
    ASSERT_FALSE(eof);
    EXPECT_EQ(IOOp::kRead, rec.op);
    EXPECT_EQ(IOFileKind::kSstData, rec.kind);
    EXPECT_EQ(IOContextTag::kUserGet, rec.context);
    EXPECT_EQ(1000 + i, rec.ts_us);
    EXPECT_EQ(i * 4096, rec.offset);
    EXPECT_EQ(4096u, rec.len);
    EXPECT_EQ(80 + i, rec.latency_us);
    EXPECT_EQ("/db/000001.sst", rec.fname);
  }
  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(IOTraceFileTest, CorruptedRecordRejected) {
  IOTracer tracer(&env_);
  ASSERT_TRUE(env_.CreateDirIfMissing("/t").ok());
  ASSERT_TRUE(tracer.Start("/t/io.trace", 0).ok());
  tracer.AddRecord(MakeRecord(0));
  ASSERT_TRUE(tracer.Stop(nullptr).ok());

  std::string contents;
  ASSERT_TRUE(env_.ReadFileToString("/t/io.trace", &contents).ok());
  // Flip one payload byte past the header + frame prefix.
  std::string corrupt = contents;
  corrupt[corrupt.size() - 3] ^= 0x40;
  ASSERT_TRUE(env_.WriteStringToFile(corrupt, "/t/bad.trace").ok());

  IOTraceReader reader(&env_);
  ASSERT_TRUE(reader.Open("/t/bad.trace").ok());
  IOTraceRecord rec;
  bool eof = false;
  Status s = reader.Next(&rec, &eof);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // A truncated record (torn write) is corruption too, not clean EOF.
  std::string truncated = contents.substr(0, contents.size() - 5);
  ASSERT_TRUE(env_.WriteStringToFile(truncated, "/t/torn.trace").ok());
  IOTraceReader reader2(&env_);
  ASSERT_TRUE(reader2.Open("/t/torn.trace").ok());
  s = reader2.Next(&rec, &eof);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // A file that is not a trace at all fails at Open.
  ASSERT_TRUE(env_.WriteStringToFile("not a trace", "/t/junk").ok());
  IOTraceReader reader3(&env_);
  EXPECT_FALSE(reader3.Open("/t/junk").ok());
}

// Analysis reads the trace in whole chunks: on SimEnv every Read is a
// charged IO under the env's mutex, so the count is the cost.
TEST_F(IOTraceFileTest, AnalysisReadsTheTraceInChunks) {
  IOTracer tracer(&env_);
  ASSERT_TRUE(tracer.Start("/io.trace", 0).ok());
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; i++) tracer.AddRecord(MakeRecord(i));
  ASSERT_TRUE(tracer.Stop(nullptr).ok());
  uint64_t file_bytes = 0;
  ASSERT_TRUE(env_.GetFileSize("/io.trace", &file_bytes).ok());

  const uint64_t reads_before = env_.io_stats().reads;
  bench::IOAnalysis analysis;
  ASSERT_TRUE(bench::AnalyzeIOTrace(&env_, "/io.trace", 10, &analysis).ok());
  const uint64_t reads = env_.io_stats().reads - reads_before;
  EXPECT_EQ(n, analysis.records);
  const uint64_t chunk = RecordFileReader::kChunkSize;
  EXPECT_LE(reads, (file_bytes + chunk - 1) / chunk + 2)
      << file_bytes << " bytes, " << n << " records";
}

// The tracing env classifies each file once, at open; the metadata hint
// is thread state at the IO, so one SST handle yields both SST kinds.
TEST(IOTracingEnv, FileKindsFromOpenAndHintFromTheIO) {
  MemEnv base;
  IOTracingEnv env(&base);
  ASSERT_TRUE(env.CreateDirIfMissing("/db").ok());
  const std::vector<std::pair<std::string, IOFileKind>> written = {
      {"/db/000005.log", IOFileKind::kWal},
      {"/db/MANIFEST-000002", IOFileKind::kManifest},
      {"/db/CURRENT", IOFileKind::kCurrent},
      {"/db/LOG", IOFileKind::kInfoLog},
      {"/db/000007.sst", IOFileKind::kSstData}};
  std::vector<std::unique_ptr<WritableFile>> files;
  for (const auto& [name, kind] : written) {
    files.emplace_back();
    ASSERT_TRUE(env.NewWritableFile(name, &files.back()).ok()) << name;
  }

  ASSERT_TRUE(env.trace()->Start("/io.trace", 0).ok());
  for (auto& f : files) ASSERT_TRUE(f->Append(Slice(std::string(64, 'x'))).ok());
  std::unique_ptr<RandomAccessFile> sst;
  ASSERT_TRUE(env.NewRandomAccessFile("/db/000007.sst", &sst).ok());
  char scratch[16];
  Slice got;
  ASSERT_TRUE(sst->Read(0, 16, &got, scratch).ok());
  {
    IOMetadataHintScope hint;
    ASSERT_TRUE(sst->Read(16, 16, &got, scratch).ok());
    // The hint is about SST blocks; it does not relabel other files.
    ASSERT_TRUE(files[0]->Sync().ok());
  }
  std::unique_ptr<SequentialFile> wal;
  ASSERT_TRUE(env.NewSequentialFile("/db/000005.log", &wal).ok());
  ASSERT_TRUE(wal->Read(8, &got, scratch).ok());
  ASSERT_TRUE(env.trace()->Stop(nullptr).ok());

  std::vector<std::pair<std::string, IOFileKind>> want = written;
  want.emplace_back("/db/000007.sst", IOFileKind::kSstData);
  want.emplace_back("/db/000007.sst", IOFileKind::kSstIndexFilter);
  want.emplace_back("/db/000005.log", IOFileKind::kWal);
  want.emplace_back("/db/000005.log", IOFileKind::kWal);
  IOTraceReader reader(&base);
  ASSERT_TRUE(reader.Open("/io.trace").ok());
  IOTraceRecord rec;
  bool eof = false;
  for (const auto& [name, kind] : want) {
    ASSERT_TRUE(reader.Next(&rec, &eof).ok());
    ASSERT_FALSE(eof);
    EXPECT_EQ(name, rec.fname);
    EXPECT_EQ(kind, rec.kind) << name << " got " << IOFileKindName(rec.kind);
  }
  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_TRUE(eof);
}

// ---------------------------------------------------------------------
// DB-level capture on SimEnv.

struct DbTraceResult {
  std::string io_trace;     // raw trace file bytes
  std::string cache_trace;  // raw trace file bytes
};

DbTraceResult RunTracedWorkload(uint64_t seed) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  SimEnv env(hw, seed);
  lsm::Options opts;
  opts.env = &env;
  opts.create_if_missing = true;
  opts.write_buffer_size = 64 << 10;
  opts.block_cache_size = 256 << 10;

  std::unique_ptr<lsm::DB> db;
  EXPECT_TRUE(lsm::DB::Open(opts, "/db", &db).ok());
  EXPECT_TRUE(db->StartIOTrace("/io.trace").ok());
  EXPECT_TRUE(db->StartBlockCacheTrace("/cache.trace").ok());

  // Double-start is rejected while a trace is active.
  EXPECT_FALSE(db->StartIOTrace("/io2.trace").ok());

  const std::string value(512, 'v');
  for (int i = 0; i < 2000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i * 7919 % 500);
    EXPECT_TRUE(db->Put({}, key, value).ok());
  }
  EXPECT_TRUE(db->FlushMemTable().ok());
  std::string out;
  for (int i = 0; i < 500; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i);
    db->Get({}, key, &out);
  }

  EXPECT_TRUE(db->EndIOTrace().ok());
  EXPECT_TRUE(db->EndBlockCacheTrace().ok());
  // Ending again without an active trace is an error.
  EXPECT_FALSE(db->EndIOTrace().ok());
  EXPECT_FALSE(db->EndBlockCacheTrace().ok());
  db.reset();

  DbTraceResult r;
  EXPECT_TRUE(env.ReadFileToString("/io.trace", &r.io_trace).ok());
  EXPECT_TRUE(env.ReadFileToString("/cache.trace", &r.cache_trace).ok());
  return r;
}

TEST(DbIOTrace, CapturesClassifiedTraffic) {
  DbTraceResult r = RunTracedWorkload(42);
  ASSERT_FALSE(r.io_trace.empty());
  ASSERT_FALSE(r.cache_trace.empty());

  // Replay through the analyzer: WAL writes, SST traffic, and both
  // user-write and flush contexts must all be attributed.
  SimEnv env(HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd()), 1);
  ASSERT_TRUE(env.WriteStringToFile(r.io_trace, "/replay.trace").ok());
  bench::IOAnalysis analysis;
  ASSERT_TRUE(
      bench::AnalyzeIOTrace(&env, "/replay.trace", 10, &analysis).ok());
  EXPECT_GT(analysis.records, 0u);
  EXPECT_GT(
      analysis.by_kind[static_cast<int>(IOFileKind::kWal)].bytes, 0u);
  EXPECT_GT(
      analysis.by_kind[static_cast<int>(IOFileKind::kSstData)].bytes, 0u);
  EXPECT_GT(
      analysis.by_context[static_cast<int>(IOContextTag::kUserWrite)].ops,
      0u);
  EXPECT_GT(analysis.by_context[static_cast<int>(IOContextTag::kFlush)].ops,
            0u);
  EXPECT_GT(analysis.by_context[static_cast<int>(IOContextTag::kUserGet)].ops,
            0u);
  EXPECT_FALSE(analysis.heatmap.empty());
}

TEST(DbIOTrace, DeterministicAcrossIdenticalRuns) {
  DbTraceResult a = RunTracedWorkload(42);
  DbTraceResult b = RunTracedWorkload(42);
  // Byte-identical traces: same ops, offsets, virtual timestamps,
  // latencies, record order — the SimEnv determinism guarantee extends
  // to the observability layer.
  EXPECT_EQ(a.io_trace, b.io_trace);
  EXPECT_EQ(a.cache_trace, b.cache_trace);
  ASSERT_FALSE(a.io_trace.empty());
  ASSERT_FALSE(a.cache_trace.empty());
}

}  // namespace
}  // namespace elmo
