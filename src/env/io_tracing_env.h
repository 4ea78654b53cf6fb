// IOTracingEnv: a decorator Env that forwards everything to a base Env
// and, while a trace is active, emits one IOTraceRecord per file
// read/append/sync/range-sync with engine-clock latency and the calling
// thread's IOContext. Files are wrapped at open time, so a WAL opened
// before DB::StartIOTrace still shows up once tracing starts. The trace
// file itself is written through the *base* env, so tracer output never
// recurses into the trace.
#pragma once

#include <memory>
#include <string>

#include "env/env.h"
#include "env/io_trace.h"

namespace elmo {

class IOTracingEnv : public EnvWrapper {
 public:
  explicit IOTracingEnv(Env* base);

  // The trace this env records into (DB::StartIOTrace/EndIOTrace start
  // and stop it); its file is written through the base env.
  IOTracer* trace() { return &trace_; }
  bool tracing() const { return trace_.active(); }

  // Internal: called by the file wrappers, with the kind they classified
  // for their file at open. Latency is (end_us - start_us) measured on
  // the base env's clock before the record is serialized, so the
  // tracer's own writes never inflate it.
  void Emit(IOOp op, IOFileKind file_kind, const std::string& fname,
            uint64_t offset, uint64_t len, uint64_t start_us,
            uint64_t end_us);

  // File factories wrap; everything else forwards (EnvWrapper).
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;

 private:
  IOTracer trace_;
};

}  // namespace elmo
