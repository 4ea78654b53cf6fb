// Outside-in span recorder for the traced run. Spans are opened by the
// benchmark's own code around each call it makes into a layer (DB calls,
// counting-Env file operations, LLM calls, bench runs), never inside the
// engine. Every span carries a name, start, end, parent and request id;
// spans are kept in memory and written out at exit, and each thread
// also folds its spans into per-name count / total / self-time sums
// (self = duration minus the time covered by child spans).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace wallbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint16_t {
  kDbPut,
  kDbGet,
  kDbDrain,          // DB::WaitForBackgroundWork
  kDbCompactRange,
  kDbFlush,          // DB::FlushMemTable
  kEnvWalWrite,
  kEnvSstWrite,
  kEnvManifestWrite,
  kEnvOtherWrite,
  kEnvSync,
  kEnvSstRead,
  kEnvOtherRead,
  kLlmComplete,
  kBenchRun,
  kBenchProbe,
  kTuningSession,
  kCount,
};

const char* SpanNameString(SpanName name);

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// Process-wide switch. Spans are recorded only while it is on; the
// untraced phases pay one relaxed load per call site.
bool TracingEnabled();
void SetTracing(bool on);

// Request id stamped on spans opened by this thread (0 = background).
void SetRequestId(uint64_t request);

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

// Sums over every thread's spans of `name`. Call only after the threads
// that recorded them have finished.
SpanTotals TotalsFor(SpanName name);
uint64_t SpansRecorded();

// Writes the stored spans as JSON lines; returns false on an IO error.
bool WriteSpans(const std::string& path);

}  // namespace wallbench
