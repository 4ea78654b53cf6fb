// Byte-format golden test for the four binary traces (workload, IO,
// block-cache, span). Each writer records a fixed sequence on a MemEnv
// whose clock ticks deterministically, and the resulting file must match
// the length and CRC32C pinned from the shipped format. Round-trip tests
// cannot see a change that both sides of the format make together; this
// one fails on any changed byte — header, frame or payload. A deliberate
// format change bumps the format's version and re-pins the constants.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "env/io_trace.h"
#include "env/mem_env.h"
#include "lsm/span.h"
#include "lsm/trace.h"
#include "table/block_cache_tracer.h"
#include "util/crc32c.h"

namespace elmo {
namespace {

// MemEnv with a clock that advances 10 us per reading, so writers that
// timestamp from the env (the block-cache tracer) produce fixed bytes.
class TickingMemEnv : public MemEnv {
 public:
  uint64_t NowMicros() override { return now_ += 10; }

 private:
  uint64_t now_ = 5000;
};

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[4];
  for (unsigned char c : bytes) {
    snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

void ExpectGolden(Env* env, const std::string& path, size_t size,
                  uint32_t crc) {
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(size, contents.size()) << path << ": " << Hex(contents);
  EXPECT_EQ(crc, crc32c::Value(contents.data(), contents.size()))
      << path << ": " << Hex(contents);
}

TEST(RecordFileGolden, WorkloadTrace) {
  TickingMemEnv env;
  lsm::TraceWriter writer(&env);
  ASSERT_TRUE(writer.Start("/workload.trace", 1000).ok());
  using lsm::TraceOp;
  writer.AddRecord(TraceOp::kPut, 1010, 7, "alpha", 128);
  writer.AddRecord(TraceOp::kDelete, 1020, 7, "beta", 0);
  writer.AddRecord(TraceOp::kGet, 1030, 9, "gamma", 0);
  ASSERT_TRUE(writer.Stop(nullptr).ok());
  ExpectGolden(&env, "/workload.trace", 104, 3589134462u);
}

TEST(RecordFileGolden, IOTrace) {
  TickingMemEnv env;
  IOTracer tracer(&env);
  ASSERT_TRUE(tracer.Start("/io.trace", 2000).ok());
  IOTraceRecord rec;
  rec.op = IOOp::kWrite;
  rec.kind = IOFileKind::kWal;
  rec.context = IOContextTag::kUserWrite;
  rec.ts_us = 2010;
  rec.offset = 0;
  rec.len = 512;
  rec.latency_us = 3;
  rec.fname = "/db/000005.log";
  tracer.AddRecord(rec);
  rec.op = IOOp::kRead;
  rec.kind = IOFileKind::kSstIndexFilter;
  rec.context = IOContextTag::kUserGet;
  rec.ts_us = 2020;
  rec.offset = 8192;
  rec.len = 4096;
  rec.latency_us = 85;
  rec.fname = "/db/000007.sst";
  tracer.AddRecord(rec);
  rec.op = IOOp::kSync;
  rec.kind = IOFileKind::kManifest;
  rec.context = IOContextTag::kFlush;
  rec.ts_us = 2030;
  rec.offset = 0;
  rec.len = 0;
  rec.latency_us = 1200;
  rec.fname = "/db/MANIFEST-000002";
  tracer.AddRecord(rec);
  ASSERT_TRUE(tracer.Stop(nullptr).ok());
  ExpectGolden(&env, "/io.trace", 199, 22548626u);
}

TEST(RecordFileGolden, BlockCacheTrace) {
  TickingMemEnv env;
  BlockCacheTracer tracer(&env);
  ASSERT_TRUE(tracer.Start("/cache.trace", env.NowMicros()).ok());
  tracer.Record(TraceBlockType::kIndex, false, true, 0, 12, 40960, 512);
  tracer.Record(TraceBlockType::kFilter, true, true, 1, 13, 45056, 1024);
  tracer.Record(TraceBlockType::kData, false, false, -1, 14, 4096, 4096);
  uint64_t records = 0;
  ASSERT_TRUE(tracer.Stop(&records).ok());
  EXPECT_EQ(3u, records);
  ExpectGolden(&env, "/cache.trace", 152, 480979478u);
}

TEST(RecordFileGolden, SpanTrace) {
  TickingMemEnv env;
  lsm::SpanTracer tracer(&env);
  lsm::SpanTraceOptions options;
  options.slow_op_threshold_us = 30;
  options.sample_every = 2;
  ASSERT_TRUE(tracer.Start("/span.trace", options, 7000).ok());

  lsm::SpanTree write;
  write.thread_id = 3;
  write.spans.resize(3);
  write.spans[0].kind = lsm::SpanKind::kWrite;
  write.spans[0].start_us = 7100;
  write.spans[0].duration_us = 40;
  write.spans[1].kind = lsm::SpanKind::kWalAppend;
  write.spans[1].parent = 0;
  write.spans[1].start_us = 7105;
  write.spans[1].duration_us = 20;
  write.spans[1].annotations = {{lsm::SpanTag::kBytes, 128}};
  write.spans[2].kind = lsm::SpanKind::kMemtableInsert;
  write.spans[2].parent = 0;
  write.spans[2].start_us = 7125;
  write.spans[2].duration_us = 5;
  tracer.Consume(write);  // slow and sampled

  lsm::SpanTree get;
  get.thread_id = 4;
  get.spans.resize(2);
  get.spans[0].kind = lsm::SpanKind::kGet;
  get.spans[0].start_us = 7200;
  get.spans[0].duration_us = 12;
  get.spans[0].annotations = {{lsm::SpanTag::kHit, 1}};
  get.spans[1].kind = lsm::SpanKind::kSstProbe;
  get.spans[1].parent = 0;
  get.spans[1].start_us = 7202;
  get.spans[1].duration_us = 9;
  get.spans[1].annotations = {{lsm::SpanTag::kFilesProbed, 2},
                              {lsm::SpanTag::kLevel, 1}};
  tracer.Consume(get);  // sampled (first get)
  get.spans[0].start_us = 7300;
  tracer.Consume(get);  // neither slow nor sampled: dropped

  uint64_t trees = 0;
  ASSERT_TRUE(tracer.Stop(&trees).ok());
  EXPECT_EQ(2u, trees);
  ExpectGolden(&env, "/span.trace", 98, 1211489475u);
}

}  // namespace
}  // namespace elmo
