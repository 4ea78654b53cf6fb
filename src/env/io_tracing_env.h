// IOTracingEnv: a decorator Env that forwards everything to a base Env
// and, while a trace is active, emits one IOTraceRecord per file
// read/append/sync/range-sync with engine-clock latency and the calling
// thread's IOContext. Files are wrapped at open time, so a WAL opened
// before DB::StartIOTrace still shows up once tracing starts. The trace
// file itself is written through the *base* env, so tracer output never
// recurses into the trace.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "env/env.h"
#include "env/io_trace.h"

namespace elmo {

class IOTracingEnv : public EnvWrapper {
 public:
  explicit IOTracingEnv(Env* base);
  ~IOTracingEnv() override;

  // Begin tracing into `path`. Fails with Busy if a trace is active.
  Status StartTrace(const std::string& path);
  // Stop tracing and close the file; *records (optional) receives the
  // number of records written. InvalidArgument if no trace is active.
  Status EndTrace(uint64_t* records);
  bool tracing() const { return enabled_.load(std::memory_order_acquire); }

  // Internal: called by the file wrappers. Latency is (end_us - start_us)
  // measured on the base env's clock before the record is serialized, so
  // the tracer's own writes never inflate it.
  void Emit(IOOp op, const std::string& fname, uint64_t offset, uint64_t len,
            uint64_t start_us, uint64_t end_us);

  // File factories wrap; everything else forwards (EnvWrapper).
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;

 private:
  std::atomic<bool> enabled_{false};
  std::mutex trace_mu_;
  std::shared_ptr<IOTracer> tracer_;
};

}  // namespace elmo
