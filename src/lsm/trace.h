// Workload trace capture and reading. StartTrace() on a DB hooks the
// write and read paths and appends one record per user operation — op
// kind, key, value size (not the value: traces stay small and replay
// regenerates values deterministically), engine-clock timestamp, and the
// issuing thread — to a CRC-framed binary file written through the Env.
// bench_kit::ReplayTrace re-executes a trace against a fresh DB, either
// as fast as possible or with the recorded inter-op gaps preserved.
//
// File layout: util/record_file.h framing, magic "ELMOTRC1", version 1.
//   payload: op (1 byte) | fixed64 ts_us | fixed32 thread_id
//            | varint32 key_len | key bytes | varint32 value_size
// A torn or bit-flipped record fails its CRC and surfaces as
// Status::Corruption from TraceReader::Next.
#pragma once

#include <cstdint>
#include <string>

#include "env/env.h"
#include "util/record_file.h"
#include "util/status.h"

namespace elmo::lsm {

enum class TraceOp : uint8_t {
  kPut = 1,
  kDelete = 2,
  kGet = 3,
};

struct TraceRecord {
  TraceOp op = TraceOp::kPut;
  uint64_t ts_us = 0;  // engine clock at capture time
  uint32_t thread_id = 0;
  std::string key;
  uint32_t value_size = 0;  // 0 for deletes and gets
};

// Writes the workload trace; Start/Stop/active/records come from
// RecordTrace. `base_ts_us` anchors replay timing (normally the engine
// clock at StartTrace).
class TraceWriter : public RecordTrace {
 public:
  explicit TraceWriter(Env* env);

  // No-op unless a trace is active.
  void AddRecord(TraceOp op, uint64_t ts_us, uint32_t thread_id,
                 const Slice& key, uint32_t value_size);
};

class TraceReader {
 public:
  explicit TraceReader(Env* env);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  // Open and validate the header.
  Status Open(const std::string& path);

  // Read the next record. Sets *eof=true (with OK status) at a clean end
  // of file; returns Corruption on a bad CRC or truncated record.
  Status Next(TraceRecord* rec, bool* eof);

  uint64_t base_ts_us() const { return file_.base_ts_us(); }

 private:
  RecordFileReader file_;
};

}  // namespace elmo::lsm
