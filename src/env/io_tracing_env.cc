#include "env/io_tracing_env.h"

#include <utility>

namespace elmo {

namespace {

// What every traced file keeps: its env, its name, and its kind,
// classified once at open (the per-IO metadata hint is thread state, so
// it is applied per record).
class TracedFile {
 public:
  TracedFile(IOTracingEnv* env, std::string fname)
      : env_(env),
        fname_(std::move(fname)),
        kind_(ClassifyIOFileKind(fname_, /*hint_metadata=*/false)) {}

 protected:
  bool tracing() const { return env_->tracing(); }
  uint64_t Now() const { return env_->base()->NowMicros(); }
  void Emit(IOOp op, uint64_t offset, uint64_t len, uint64_t start_us,
            uint64_t end_us) const {
    env_->Emit(op, kind_, fname_, offset, len, start_us, end_us);
  }

 private:
  IOTracingEnv* const env_;
  const std::string fname_;
  const IOFileKind kind_;
};

class TracingSequentialFile : public SequentialFile, private TracedFile {
 public:
  TracingSequentialFile(IOTracingEnv* env, std::string fname,
                        std::unique_ptr<SequentialFile> target)
      : TracedFile(env, std::move(fname)), target_(std::move(target)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (!tracing()) {
      Status s = target_->Read(n, result, scratch);
      offset_ += result->size();
      return s;
    }
    const uint64_t start = Now();
    Status s = target_->Read(n, result, scratch);
    const uint64_t end = Now();
    Emit(IOOp::kRead, offset_, result->size(), start, end);
    offset_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    Status s = target_->Skip(n);
    if (s.ok()) offset_ += n;
    return s;
  }

 private:
  std::unique_ptr<SequentialFile> target_;
  uint64_t offset_ = 0;
};

class TracingRandomAccessFile : public RandomAccessFile, private TracedFile {
 public:
  TracingRandomAccessFile(IOTracingEnv* env, std::string fname,
                          std::unique_ptr<RandomAccessFile> target)
      : TracedFile(env, std::move(fname)), target_(std::move(target)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!tracing()) return target_->Read(offset, n, result, scratch);
    const uint64_t start = Now();
    Status s = target_->Read(offset, n, result, scratch);
    const uint64_t end = Now();
    Emit(IOOp::kRead, offset, result->size(), start, end);
    return s;
  }

  void Readahead(uint64_t offset, uint64_t length) override {
    target_->Readahead(offset, length);
  }

 private:
  std::unique_ptr<RandomAccessFile> target_;
};

class TracingWritableFile : public WritableFile, private TracedFile {
 public:
  TracingWritableFile(IOTracingEnv* env, std::string fname,
                      std::unique_ptr<WritableFile> target)
      : TracedFile(env, std::move(fname)), target_(std::move(target)) {}

  Status Append(const Slice& data) override {
    if (!tracing()) return target_->Append(data);
    const uint64_t offset = target_->GetFileSize();
    const uint64_t start = Now();
    Status s = target_->Append(data);
    const uint64_t end = Now();
    Emit(IOOp::kWrite, offset, data.size(), start, end);
    return s;
  }

  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }

  Status Sync() override {
    if (!tracing()) return target_->Sync();
    const uint64_t start = Now();
    Status s = target_->Sync();
    const uint64_t end = Now();
    Emit(IOOp::kSync, 0, 0, start, end);
    return s;
  }

  Status RangeSync(uint64_t offset) override {
    if (!tracing()) return target_->RangeSync(offset);
    const uint64_t start = Now();
    Status s = target_->RangeSync(offset);
    const uint64_t end = Now();
    Emit(IOOp::kRangeSync, offset, 0, start, end);
    return s;
  }

  uint64_t GetFileSize() const override { return target_->GetFileSize(); }

 private:
  std::unique_ptr<WritableFile> target_;
};

}  // namespace

IOTracingEnv::IOTracingEnv(Env* base) : EnvWrapper(base), trace_(base) {}

void IOTracingEnv::Emit(IOOp op, IOFileKind file_kind,
                        const std::string& fname, uint64_t offset,
                        uint64_t len, uint64_t start_us, uint64_t end_us) {
  // A failed append drops the record, not the op.
  trace_.AddRecord(op, WithMetadataHint(file_kind, CurrentIOMetadataHint()),
                   CurrentIOContext(), start_us, offset, len,
                   end_us >= start_us ? end_us - start_us : 0, fname);
}

Status IOTracingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> inner;
  Status s = base()->NewSequentialFile(fname, &inner);
  if (!s.ok()) return s;
  result->reset(new TracingSequentialFile(this, fname, std::move(inner)));
  return s;
}

Status IOTracingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> inner;
  Status s = base()->NewRandomAccessFile(fname, &inner);
  if (!s.ok()) return s;
  result->reset(new TracingRandomAccessFile(this, fname, std::move(inner)));
  return s;
}

Status IOTracingEnv::NewWritableFile(const std::string& fname,
                                     std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> inner;
  Status s = base()->NewWritableFile(fname, &inner);
  if (!s.ok()) return s;
  result->reset(new TracingWritableFile(this, fname, std::move(inner)));
  return s;
}

}  // namespace elmo
