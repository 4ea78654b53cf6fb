// Byte-format golden test for the four binary traces (workload, IO,
// block-cache, span). Each writer records a fixed sequence on a MemEnv
// whose clock ticks deterministically, and the resulting file must match
// the length and CRC32C pinned from the shipped format. Round-trip tests
// cannot see a change that both sides of the format make together; this
// one fails on any changed byte — header, frame or payload. A deliberate
// format change bumps the format's version and re-pins the constants.
//
// The reader tests below cover RecordFileReader's chunked buffer: records
// across chunk boundaries and larger than a chunk, a file that returns a
// few bytes per read, and the Corruption-vs-clean-EOF edge at every cut.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "env/io_trace.h"
#include "env/mem_env.h"
#include "lsm/span.h"
#include "lsm/trace.h"
#include "table/block_cache_tracer.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/record_file.h"

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

// ---------------------------------------------------------------------
// RecordFileReader over the shared framing, with a format of its own.

constexpr RecordFormat kTestFormat = {"ELMOTST1", 1, "test trace", 1,
                                      1u << 20};

class TestTrace : public RecordTrace {
 public:
  explicit TestTrace(Env* env) : RecordTrace(env, kTestFormat) {}
  void Add(const std::string& payload) {
    Append([&payload](std::string* out) {
      out->append(payload);
      return true;
    });
  }
};

// Payload i: `size` bytes that differ per record and per position.
std::string TestPayload(size_t i, size_t size) {
  std::string p(size, '\0');
  for (size_t j = 0; j < size; j++) p[j] = static_cast<char>(i * 31 + j * 7);
  return p;
}

// Writes `payloads` to `path` and returns the file offset at which each
// record's frame starts (plus the file size last).
std::vector<size_t> WriteTestTrace(Env* env, const std::string& path,
                                   const std::vector<std::string>& payloads) {
  TestTrace trace(env);
  EXPECT_TRUE(trace.Start(path, 77).ok());
  std::vector<size_t> offsets;
  size_t offset = 8 + 4 + 8;  // magic | version | base_ts_us
  for (const std::string& p : payloads) {
    offsets.push_back(offset);
    trace.Add(p);
    offset += kRecordFrameHeaderSize + p.size();
  }
  offsets.push_back(offset);
  EXPECT_TRUE(trace.Stop(nullptr).ok());
  return offsets;
}

// Reads `path` to the end: the payloads read, and the final status
// (OK after a clean EOF).
Status ReadTestTrace(Env* env, const std::string& path,
                     std::vector<std::string>* payloads) {
  RecordFileReader reader(env, kTestFormat);
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  EXPECT_EQ(77u, reader.base_ts_us());
  while (true) {
    Slice payload;
    bool eof = false;
    s = reader.Next(&payload, &eof);
    if (!s.ok() || eof) return s;
    payloads->emplace_back(payload.data(), payload.size());
  }
}

TEST(RecordFileReader, RecordsAcrossChunkBoundaries) {
  MemEnv env;
  Random rnd(301);
  std::vector<std::string> payloads;
  for (size_t i = 0; i < 400; i++) {
    payloads.push_back(TestPayload(i, 1 + rnd.Uniform(3000)));
  }
  const std::vector<size_t> offsets =
      WriteTestTrace(&env, "/t.trace", payloads);
  // The file spans several chunks, and some record's frame starts in one
  // chunk and ends in the next.
  const size_t chunk = RecordFileReader::kChunkSize;
  ASSERT_GT(offsets.back(), 3 * chunk);
  bool straddles = false;
  for (size_t i = 0; i + 1 < offsets.size(); i++) {
    straddles |= offsets[i] / chunk != (offsets[i + 1] - 1) / chunk;
  }
  ASSERT_TRUE(straddles);

  std::vector<std::string> got;
  ASSERT_TRUE(ReadTestTrace(&env, "/t.trace", &got).ok());
  EXPECT_EQ(payloads, got);
}

TEST(RecordFileReader, PayloadsLargerThanAChunk) {
  MemEnv env;
  const size_t chunk = RecordFileReader::kChunkSize;
  const std::vector<std::string> payloads = {
      TestPayload(0, 10), TestPayload(1, chunk + 1), TestPayload(2, 5),
      TestPayload(3, 3 * chunk - 100), TestPayload(4, 2 * chunk),
      TestPayload(5, 1)};
  WriteTestTrace(&env, "/t.trace", payloads);
  std::vector<std::string> got;
  ASSERT_TRUE(ReadTestTrace(&env, "/t.trace", &got).ok());
  EXPECT_EQ(payloads, got);
}

TEST(RecordFileReader, SpanTreeLargerThanAChunk) {
  MemEnv env;
  lsm::SpanTracer tracer(&env);
  lsm::SpanTraceOptions options;
  options.slow_op_threshold_us = 0;  // every tree is slow: all written
  ASSERT_TRUE(tracer.Start("/span.trace", options, 0).ok());
  lsm::SpanTree big;
  big.thread_id = 5;
  big.spans.resize(40000);
  for (size_t i = 0; i < big.spans.size(); i++) {
    lsm::SpanNode& n = big.spans[i];
    n.kind = i == 0 ? lsm::SpanKind::kCompaction : lsm::SpanKind::kSstProbe;
    n.parent = i == 0 ? -1 : 0;
    n.start_us = 1000 + i;
    n.duration_us = 1000000 + i;
    n.annotations = {{lsm::SpanTag::kBytes, 1000000 + i}};
  }
  lsm::SpanTree small = big;
  small.spans.resize(2);
  tracer.Consume(small);
  tracer.Consume(big);
  tracer.Consume(small);
  ASSERT_TRUE(tracer.Stop(nullptr).ok());
  uint64_t file_size = 0;
  ASSERT_TRUE(env.GetFileSize("/span.trace", &file_size).ok());
  ASSERT_GT(file_size, 4 * RecordFileReader::kChunkSize);

  lsm::SpanTraceReader reader(&env);
  ASSERT_TRUE(reader.Open("/span.trace").ok());
  for (const lsm::SpanTree* want : {&small, &big, &small}) {
    lsm::SpanTree tree;
    bool eof = false;
    ASSERT_TRUE(reader.Next(&tree, &eof).ok());
    ASSERT_FALSE(eof);
    ASSERT_EQ(want->spans.size(), tree.spans.size());
    for (size_t i = 0; i < tree.spans.size(); i++) {
      EXPECT_EQ(want->spans[i].kind, tree.spans[i].kind);
      EXPECT_EQ(want->spans[i].start_us, tree.spans[i].start_us);
      EXPECT_EQ(want->spans[i].annotations, tree.spans[i].annotations);
    }
  }
  lsm::SpanTree tree;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&tree, &eof).ok());
  EXPECT_TRUE(eof);
}

// A file that returns 1-7 bytes per Read, alternately in the caller's
// scratch and in a buffer of its own.
class DribbleFile : public SequentialFile {
 public:
  explicit DribbleFile(std::unique_ptr<SequentialFile> target)
      : target_(std::move(target)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const size_t want = std::min<size_t>(n, 1 + calls_ % 7);
    char* dst = calls_ % 2 == 0 ? scratch : own_;
    calls_++;
    return target_->Read(want, result, dst);
  }
  Status Skip(uint64_t n) override { return target_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> target_;
  size_t calls_ = 0;
  char own_[8];
};

class DribbleEnv : public EnvWrapper {
 public:
  explicit DribbleEnv(Env* base) : EnvWrapper(base) {}
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    std::unique_ptr<SequentialFile> inner;
    Status s = base()->NewSequentialFile(fname, &inner);
    if (s.ok()) result->reset(new DribbleFile(std::move(inner)));
    return s;
  }
};

TEST(RecordFileReader, ShortReadsYieldTheSameRecords) {
  MemEnv mem;
  Random rnd(17);
  std::vector<std::string> payloads;
  for (size_t i = 0; i < 200; i++) {
    payloads.push_back(TestPayload(i, 1 + rnd.Uniform(1000)));
  }
  payloads.push_back(TestPayload(200, RecordFileReader::kChunkSize + 3));
  WriteTestTrace(&mem, "/t.trace", payloads);
  DribbleEnv env(&mem);
  std::vector<std::string> got;
  ASSERT_TRUE(ReadTestTrace(&env, "/t.trace", &got).ok());
  EXPECT_EQ(payloads, got);
}

TEST(RecordFileReader, CutInsideLastRecordIsCorruption) {
  MemEnv env;
  const std::vector<std::string> payloads = {
      TestPayload(0, 40), TestPayload(1, 3), TestPayload(2, 25)};
  const std::vector<size_t> offsets =
      WriteTestTrace(&env, "/t.trace", payloads);
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString("/t.trace", &contents).ok());
  ASSERT_EQ(offsets.back(), contents.size());

  const size_t last = offsets[offsets.size() - 2];
  for (size_t cut = last; cut <= contents.size(); cut++) {
    ASSERT_TRUE(env.WriteStringToFile(contents.substr(0, cut), "/cut").ok());
    std::vector<std::string> got;
    Status s = ReadTestTrace(&env, "/cut", &got);
    if (cut == last || cut == contents.size()) {
      // A cut at a record boundary is a clean end of file.
      EXPECT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
      EXPECT_EQ(cut == last ? 2u : 3u, got.size());
    } else {
      EXPECT_TRUE(s.IsCorruption()) << "cut at " << cut;
      EXPECT_NE(std::string::npos,
                s.ToString().find("truncated test trace record"))
          << "cut at " << cut << ": " << s.ToString();
      EXPECT_EQ(2u, got.size());
    }
  }
}

TEST(RecordFileReader, FlippedPayloadBitIsChecksumMismatch) {
  MemEnv env;
  const std::vector<std::string> payloads = {TestPayload(0, 40),
                                             TestPayload(1, 25)};
  const std::vector<size_t> offsets =
      WriteTestTrace(&env, "/t.trace", payloads);
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString("/t.trace", &contents).ok());
  const size_t payload_start = offsets[1] + kRecordFrameHeaderSize;
  for (size_t pos = payload_start; pos < contents.size(); pos++) {
    std::string bad = contents;
    bad[pos] ^= static_cast<char>(1 << (pos % 8));
    ASSERT_TRUE(env.WriteStringToFile(bad, "/bad").ok());
    std::vector<std::string> got;
    Status s = ReadTestTrace(&env, "/bad", &got);
    EXPECT_TRUE(s.IsCorruption()) << "flip at " << pos;
    EXPECT_NE(std::string::npos,
              s.ToString().find("test trace record checksum mismatch"))
        << "flip at " << pos << ": " << s.ToString();
    EXPECT_EQ(1u, got.size());
  }
}

}  // namespace
}  // namespace elmo
