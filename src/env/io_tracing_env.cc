#include "env/io_tracing_env.h"

#include <utility>

namespace elmo {

namespace {

class TracingSequentialFile : public SequentialFile {
 public:
  TracingSequentialFile(IOTracingEnv* env, std::string fname,
                        std::unique_ptr<SequentialFile> target)
      : env_(env), fname_(std::move(fname)), target_(std::move(target)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (!env_->tracing()) {
      Status s = target_->Read(n, result, scratch);
      offset_ += result->size();
      return s;
    }
    const uint64_t start = env_->base()->NowMicros();
    Status s = target_->Read(n, result, scratch);
    const uint64_t end = env_->base()->NowMicros();
    env_->Emit(IOOp::kRead, fname_, offset_, result->size(), start, end);
    offset_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    Status s = target_->Skip(n);
    if (s.ok()) offset_ += n;
    return s;
  }

 private:
  IOTracingEnv* const env_;
  const std::string fname_;
  std::unique_ptr<SequentialFile> target_;
  uint64_t offset_ = 0;
};

class TracingRandomAccessFile : public RandomAccessFile {
 public:
  TracingRandomAccessFile(IOTracingEnv* env, std::string fname,
                          std::unique_ptr<RandomAccessFile> target)
      : env_(env), fname_(std::move(fname)), target_(std::move(target)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!env_->tracing()) return target_->Read(offset, n, result, scratch);
    const uint64_t start = env_->base()->NowMicros();
    Status s = target_->Read(offset, n, result, scratch);
    const uint64_t end = env_->base()->NowMicros();
    env_->Emit(IOOp::kRead, fname_, offset, result->size(), start, end);
    return s;
  }

  void Readahead(uint64_t offset, uint64_t length) override {
    target_->Readahead(offset, length);
  }

 private:
  IOTracingEnv* const env_;
  const std::string fname_;
  std::unique_ptr<RandomAccessFile> target_;
};

class TracingWritableFile : public WritableFile {
 public:
  TracingWritableFile(IOTracingEnv* env, std::string fname,
                      std::unique_ptr<WritableFile> target)
      : env_(env), fname_(std::move(fname)), target_(std::move(target)) {}

  Status Append(const Slice& data) override {
    const uint64_t offset = target_->GetFileSize();
    if (!env_->tracing()) return target_->Append(data);
    const uint64_t start = env_->base()->NowMicros();
    Status s = target_->Append(data);
    const uint64_t end = env_->base()->NowMicros();
    env_->Emit(IOOp::kWrite, fname_, offset, data.size(), start, end);
    return s;
  }

  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }

  Status Sync() override {
    if (!env_->tracing()) return target_->Sync();
    const uint64_t start = env_->base()->NowMicros();
    Status s = target_->Sync();
    const uint64_t end = env_->base()->NowMicros();
    env_->Emit(IOOp::kSync, fname_, 0, 0, start, end);
    return s;
  }

  Status RangeSync(uint64_t offset) override {
    if (!env_->tracing()) return target_->RangeSync(offset);
    const uint64_t start = env_->base()->NowMicros();
    Status s = target_->RangeSync(offset);
    const uint64_t end = env_->base()->NowMicros();
    env_->Emit(IOOp::kRangeSync, fname_, offset, 0, start, end);
    return s;
  }

  uint64_t GetFileSize() const override { return target_->GetFileSize(); }

 private:
  IOTracingEnv* const env_;
  const std::string fname_;
  std::unique_ptr<WritableFile> target_;
};

}  // namespace

IOTracingEnv::IOTracingEnv(Env* base) : EnvWrapper(base), trace_(base) {}

void IOTracingEnv::Emit(IOOp op, const std::string& fname, uint64_t offset,
                        uint64_t len, uint64_t start_us, uint64_t end_us) {
  IOTraceRecord rec;
  rec.op = op;
  rec.kind = ClassifyIOFileKind(fname, CurrentIOMetadataHint());
  rec.context = CurrentIOContext();
  rec.ts_us = start_us;
  rec.offset = offset;
  rec.len = len;
  rec.latency_us = end_us >= start_us ? end_us - start_us : 0;
  rec.fname = fname;
  trace_.AddRecord(rec);  // a failed append drops the record, not the op
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
