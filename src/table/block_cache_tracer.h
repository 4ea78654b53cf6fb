// Block-cache access tracing. Every block-cache lookup issued by Table
// readers (data blocks, and index/filter blocks when
// cache_index_and_filter_blocks is on) is recorded with the block type,
// owning SST file number + LSM level, hit/miss, whether a miss would
// fill the cache, and the block's charge. The trace is the input to the
// offline cache simulator (bench_kit/cache_sim.h), which replays it
// against ghost LRUs at other capacities to produce a miss-ratio curve.
//
// File layout: util/record_file.h framing, magic "ELMOBCT1", version 1.
//   payload: fixed64 ts_us | type (1) | hit (1) | fill (1) | level (1,
//            int8, -1 = unknown) | fixed64 file_number | fixed64 offset
//            | fixed64 charge
//
// One BlockCacheTracer lives for the DB's lifetime (created by DBImpl,
// handed to every Table via TableReadOptions); Record() is a no-op
// unless a trace was started. The trace file is written
// through the raw Env so trace output never shows up in the IO trace.
#pragma once

#include <cstdint>
#include <string>

#include "env/env.h"
#include "util/record_file.h"
#include "util/status.h"

namespace elmo {

enum class TraceBlockType : uint8_t {
  kData = 1,
  kIndex = 2,
  kFilter = 3,
};

const char* TraceBlockTypeName(TraceBlockType type);

struct BlockCacheAccessRecord {
  uint64_t ts_us = 0;
  TraceBlockType type = TraceBlockType::kData;
  bool hit = false;
  bool fill = true;  // false for fill_cache=false lookups (compaction)
  int level = -1;    // LSM level of the owning SST; -1 if unknown
  uint64_t file_number = 0;
  uint64_t offset = 0;  // block offset within the SST
  uint64_t charge = 0;  // bytes the block occupies (or would occupy)
};

// Writes the block-cache trace; Start/Stop/active/records come from
// RecordTrace.
class BlockCacheTracer : public RecordTrace {
 public:
  explicit BlockCacheTracer(Env* env);

  // Record one lookup (timestamped on the env clock). No-op when no
  // trace is active; append failures drop the record, not the lookup.
  void Record(TraceBlockType type, bool hit, bool fill, int level,
              uint64_t file_number, uint64_t offset, uint64_t charge);
};

class BlockCacheTraceReader {
 public:
  explicit BlockCacheTraceReader(Env* env);

  BlockCacheTraceReader(const BlockCacheTraceReader&) = delete;
  BlockCacheTraceReader& operator=(const BlockCacheTraceReader&) = delete;

  Status Open(const std::string& path);
  // *eof=true with OK status at a clean end of file; Corruption on a bad
  // CRC or truncated record.
  Status Next(BlockCacheAccessRecord* rec, bool* eof);

  uint64_t base_ts_us() const { return file_.base_ts_us(); }

 private:
  RecordFileReader file_;
};

}  // namespace elmo
