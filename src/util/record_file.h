// Record-file framing shared by the engine's four binary traces: the
// workload trace (lsm/trace.h), the IO trace (env/io_trace.h), the
// block-cache trace (table/block_cache_tracer.h) and the span trace
// (lsm/span.h). Each trace owns its payload encoding, magic and length
// bounds; the bytes around the payload are decided here, once:
//
//   header:  magic[8] | fixed32 version | fixed64 base_ts_us
//   record:  fixed32 masked_crc32c(payload) | fixed32 payload_len
//            | payload
//
// A torn or bit-flipped record fails its length or CRC check and
// surfaces as Status::Corruption from RecordFileReader::Next. Files are
// written and read through an Env, so a trace on SimEnv is charged and
// stored like any other engine file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace elmo {

// What identifies and bounds one trace format.
struct RecordFormat {
  const char* magic;     // exactly 8 bytes; no terminator is read
  uint32_t version;      // a reader rejects any other version
  const char* noun;      // names the format in errors ("io trace")
  uint32_t min_payload;  // inclusive bounds on payload_len; a length
  uint32_t max_payload;  // outside them is Corruption
};

// Frames payloads into a file. Not thread-safe: every trace writer
// serializes its calls under its own mutex.
class RecordFileWriter {
 public:
  RecordFileWriter(Env* env, const RecordFormat& format);

  RecordFileWriter(const RecordFileWriter&) = delete;
  RecordFileWriter& operator=(const RecordFileWriter&) = delete;

  // Create/truncate `path` and write the header. The writer stays closed
  // if either step fails.
  Status Open(const std::string& path, uint64_t base_ts_us);
  bool is_open() const { return file_ != nullptr; }

  // Append one framed record (a single WritableFile::Append). IOError
  // when the writer is not open.
  Status Append(const Slice& payload);

  // Flush+sync+close. Idempotent; OK when not open.
  Status Close();

 private:
  Env* const env_;
  const RecordFormat format_;
  std::unique_ptr<WritableFile> file_;
};

// Reads framed payloads back, checking the header, every record's length
// bounds and its CRC.
class RecordFileReader {
 public:
  RecordFileReader(Env* env, const RecordFormat& format);

  RecordFileReader(const RecordFileReader&) = delete;
  RecordFileReader& operator=(const RecordFileReader&) = delete;

  // Open `path` and validate the magic and version.
  Status Open(const std::string& path);

  // Read the next payload. Sets *eof=true (with OK status) at a clean
  // end of file; returns Corruption on a bad length, a bad CRC or a
  // truncated record.
  Status Next(std::string* payload, bool* eof);

  uint64_t base_ts_us() const { return base_ts_us_; }

 private:
  // Read exactly n bytes into *out. *clean_eof=true (OK) when the file
  // ends before the first byte; Corruption when it ends mid-way.
  Status ReadFully(size_t n, std::string* out, bool* clean_eof);
  Status Corruption(const char* what) const;

  Env* const env_;
  const RecordFormat format_;
  std::unique_ptr<SequentialFile> file_;
  uint64_t base_ts_us_ = 0;
};

}  // namespace elmo
