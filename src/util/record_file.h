// Record-file framing and trace lifecycle shared by the engine's four
// binary traces: the workload trace (lsm/trace.h), the IO trace
// (env/io_trace.h), the block-cache trace (table/block_cache_tracer.h)
// and the span trace (lsm/span.h). Each trace owns its payload encoding,
// magic and length bounds. How a trace starts, stops, gates its call
// sites and counts its records (RecordTrace) and the bytes around the
// payload are decided here, once:
//
//   header:  magic[8] | fixed32 version | fixed64 base_ts_us
//   record:  fixed32 masked_crc32c(payload) | fixed32 payload_len
//            | payload
//
// A torn or bit-flipped record fails its length or CRC check and
// surfaces as Status::Corruption from RecordFileReader::Next. Files are
// written and read through an Env, so a trace on SimEnv is charged and
// stored like any other engine file.
//
// Both sides cost about what their bytes cost. A writer encodes each
// payload behind the frame header's reserved bytes and appends the
// frame with one WritableFile::Append, without copying the payload. The
// reader reads its file in 64 KiB chunks into one buffer it owns, and
// Next hands out each payload as a Slice into that buffer: it stays
// valid until the next call to Next or Open, so a typed reader decodes
// from it and copies out only what it keeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace elmo {

// The bytes in front of each payload: masked crc32c + payload_len.
inline constexpr size_t kRecordFrameHeaderSize = 4 + 4;

// What identifies and bounds one trace format.
struct RecordFormat {
  const char* magic;     // exactly 8 bytes; no terminator is read
  uint32_t version;      // a reader rejects any other version
  const char* noun;      // names the format in errors ("io trace")
  uint32_t min_payload;  // inclusive bounds on payload_len; a length
  uint32_t max_payload;  // outside them is Corruption
};

// One trace's writing side and lifecycle, shared by the four tracers
// (each derives from it and adds only its payload encoding): Start opens
// the file and the gate, Append frames one record, Stop closes both and
// reports the record count. Thread-safe. The gate is an atomic read
// before any lock, so a call site of an inactive trace pays one load;
// everything else runs under one mutex. A record that races a Stop finds
// the file closed and is dropped, as is one whose append fails.
class RecordTrace {
 public:
  RecordTrace(Env* env, const RecordFormat& format);
  ~RecordTrace();  // stops an active trace

  RecordTrace(const RecordTrace&) = delete;
  RecordTrace& operator=(const RecordTrace&) = delete;

  // Create/truncate `path`, write the header and open the gate; the
  // record count restarts at 0. Busy("<noun> already active") while a
  // trace is active; the trace stays inactive if either file step fails.
  // `on_start` (optional) runs under the mutex once the header is
  // written, before any record: a tracer resets its per-trace state there.
  Status Start(const std::string& path, uint64_t base_ts_us,
               const std::function<void()>& on_start = nullptr);
  // Close the gate, then flush+sync+close the file; *records (optional)
  // receives the number of records written. InvalidArgument("no <noun>
  // active") when no trace is active.
  Status Stop(uint64_t* records);

  bool active() const { return active_.load(std::memory_order_acquire); }
  uint64_t records() const;

 protected:
  Env* env() const { return env_; }

  // While a trace is active, `encode(std::string* payload)` runs under
  // the mutex and appends the payload to a reused buffer; returning true
  // appends it as one record (a single WritableFile::Append), false
  // writes nothing. The buffer already holds the frame header's
  // reserved bytes, so an encoder only ever appends to it.
  template <typename Encode>
  void Append(Encode&& encode) {
    if (!active()) return;
    std::lock_guard<std::mutex> l(mu_);
    if (file_ == nullptr) return;  // raced a Stop
    frame_.assign(kRecordFrameHeaderSize, '\0');
    if (encode(&frame_)) AppendLocked();
  }

 private:
  void AppendLocked();  // fills in frame_'s header and appends it

  Env* const env_;
  const RecordFormat format_;
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;  // open iff a trace is active
  uint64_t records_ = 0;
  std::string frame_;  // frame header | payload of the record being built
};

// Reads framed payloads back, checking the header, every record's length
// bounds and its CRC. Reads the file in chunks of kChunkSize bytes (more
// only for a record that does not fit one), so a file of B bytes costs
// about ceil(B / kChunkSize) + 1 SequentialFile::Read calls.
class RecordFileReader {
 public:
  RecordFileReader(Env* env, const RecordFormat& format);

  RecordFileReader(const RecordFileReader&) = delete;
  RecordFileReader& operator=(const RecordFileReader&) = delete;

  static constexpr size_t kChunkSize = 64 << 10;

  // Open `path` and validate the magic and version.
  Status Open(const std::string& path);

  // Read the next payload into *payload, a view of the reader's buffer
  // that stays valid until the next call to Next or Open. Sets *eof=true
  // (with OK status) at a clean end of file; returns Corruption on a bad
  // length, a bad CRC or a truncated record.
  Status Next(Slice* payload, bool* eof);

  uint64_t base_ts_us() const { return base_ts_us_; }

 private:
  // Make n unread bytes available at buf_[pos_]. *clean_eof=true (OK)
  // when the file ends before the first of them; Corruption when it
  // ends mid-way.
  Status Fill(size_t n, bool* clean_eof);
  Status Corruption(const char* what) const;

  Env* const env_;
  const RecordFormat format_;
  std::unique_ptr<SequentialFile> file_;
  uint64_t base_ts_us_ = 0;
  std::vector<char> buf_;  // bytes read from file_; [pos_, end_) unread
  size_t pos_ = 0;
  size_t end_ = 0;
};

}  // namespace elmo
