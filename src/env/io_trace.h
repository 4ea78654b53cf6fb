// Device-facing IO tracing. Every file read/write/sync that flows
// through an IOTracingEnv (see io_tracing_env.h) can be recorded as one
// CRC-framed binary record: engine-clock timestamp, file name plus a
// classified kind (WAL / SST data / SST index+filter / MANIFEST / LOG),
// offset, length, per-op latency on the engine clock, and the IOContext
// the calling thread had declared (user get, flush, compaction, WAL
// append, ...). Enabled via DB::StartIOTrace/EndIOTrace; identical on
// SimEnv (deterministic, virtual clock) and PosixEnv.
//
// File layout: util/record_file.h framing, magic "ELMOIOT1", version 1.
//   payload: op (1) | kind (1) | ctx (1) | fixed64 ts_us | fixed64 offset
//            | fixed64 len | fixed64 latency_us
//            | varint32 fname_len | fname bytes
// A torn or bit-flipped record fails its CRC and surfaces as
// Status::Corruption from IOTraceReader::Next.
#pragma once

#include <cstdint>
#include <string>

#include "env/env.h"
#include "util/record_file.h"
#include "util/status.h"

namespace elmo {

// What the operation was.
enum class IOOp : uint8_t {
  kRead = 1,       // sequential or random read
  kWrite = 2,      // append
  kSync = 3,       // full durability barrier
  kRangeSync = 4,  // incremental bytes_per_sync-style sync
};

// Which kind of engine file the bytes went to, classified from the file
// name (lsm/filename.h) plus the thread-local block-kind hint that
// Table::Open sets while loading index/filter blocks.
enum class IOFileKind : uint8_t {
  kUnknown = 0,
  kWal = 1,
  kSstData = 2,
  kSstIndexFilter = 3,
  kManifest = 4,
  kInfoLog = 5,
  kCurrent = 6,
  kOther = 7,  // OPTIONS files, traces, temp files
};

// Why the IO happened: the thread-local attribution tag declared by the
// engine call site (IOContextScope below).
enum class IOContextTag : uint8_t {
  kUnknown = 0,
  kUserGet = 1,
  kUserWrite = 2,  // WAL append + foreground write-path IO
  kFlush = 3,
  kCompaction = 4,
  kRecovery = 5,  // WAL replay / manifest recovery at open
};

const char* IOOpName(IOOp op);
const char* IOFileKindName(IOFileKind kind);
const char* IOContextTagName(IOContextTag tag);

// Classify `fname` (a path; only the basename matters). `hint_metadata`
// elevates an SST read to kSstIndexFilter.
IOFileKind ClassifyIOFileKind(const std::string& fname, bool hint_metadata);

// The kind of one IO on a file of kind `file_kind` (classified without
// the hint): kSstIndexFilter for an SST IO under `hint_metadata`.
inline IOFileKind WithMetadataHint(IOFileKind file_kind, bool hint_metadata) {
  return file_kind == IOFileKind::kSstData && hint_metadata
             ? IOFileKind::kSstIndexFilter
             : file_kind;
}

// ---------------------------------------------------------------------
// Thread-local attribution state.

// Current thread's context tag (kUnknown when no scope is active).
IOContextTag CurrentIOContext();
// True while the current thread is reading SST metadata (index/filter).
bool CurrentIOMetadataHint();

// RAII: sets the calling thread's IOContext for the scope's lifetime,
// restoring the previous tag on exit (scopes nest; the innermost wins).
class IOContextScope {
 public:
  explicit IOContextScope(IOContextTag tag);
  ~IOContextScope();

  IOContextScope(const IOContextScope&) = delete;
  IOContextScope& operator=(const IOContextScope&) = delete;

 private:
  IOContextTag saved_;
};

// RAII: marks reads issued in scope as SST metadata (index/filter).
class IOMetadataHintScope {
 public:
  IOMetadataHintScope();
  ~IOMetadataHintScope();

  IOMetadataHintScope(const IOMetadataHintScope&) = delete;
  IOMetadataHintScope& operator=(const IOMetadataHintScope&) = delete;

 private:
  bool saved_;
};

// ---------------------------------------------------------------------
// Records + writer/reader.

struct IOTraceRecord {
  IOOp op = IOOp::kRead;
  IOFileKind kind = IOFileKind::kUnknown;
  IOContextTag context = IOContextTag::kUnknown;
  uint64_t ts_us = 0;       // engine clock when the op started
  uint64_t offset = 0;      // file offset (0 for appends/syncs)
  uint64_t len = 0;         // bytes moved (0 for syncs)
  uint64_t latency_us = 0;  // engine-clock duration of the op
  std::string fname;
};

// Writes the IO trace; Start/Stop/active/records come from RecordTrace.
// The trace file is written through the Env passed here — IOTracingEnv
// passes its *base* env so the tracer's own writes never recurse into
// the trace.
class IOTracer : public RecordTrace {
 public:
  explicit IOTracer(Env* env);

  // No-op unless a trace is active.
  void AddRecord(const IOTraceRecord& rec) {
    AddRecord(rec.op, rec.kind, rec.context, rec.ts_us, rec.offset, rec.len,
              rec.latency_us, rec.fname);
  }
  // The same record from its fields, encoded straight into the frame:
  // the hot path (IOTracingEnv) builds no IOTraceRecord and copies the
  // file name only into the trace.
  void AddRecord(IOOp op, IOFileKind kind, IOContextTag context,
                 uint64_t ts_us, uint64_t offset, uint64_t len,
                 uint64_t latency_us, const Slice& fname);
};

class IOTraceReader {
 public:
  explicit IOTraceReader(Env* env);

  IOTraceReader(const IOTraceReader&) = delete;
  IOTraceReader& operator=(const IOTraceReader&) = delete;

  // Open and validate the header.
  Status Open(const std::string& path);

  // Read the next record. Sets *eof=true (with OK status) at a clean end
  // of file; returns Corruption on a bad CRC or truncated record.
  Status Next(IOTraceRecord* rec, bool* eof);

  uint64_t base_ts_us() const { return file_.base_ts_us(); }

 private:
  RecordFileReader file_;
};

}  // namespace elmo
