#include "env/mem_env.h"

#include <chrono>
#include <thread>

namespace elmo {

namespace {

class MemSequentialFile final : public SequentialFile {
 public:
  explicit MemSequentialFile(MemFs::FileRef file) : file_(std::move(file)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t to_read;
    file_->Read(pos_, n, scratch, &to_read);
    pos_ += to_read;
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  MemFs::FileRef file_;
  size_t pos_ = 0;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(MemFs::FileRef file) : file_(std::move(file)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    size_t to_read;
    file_->Read(offset, n, scratch, &to_read);
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

 private:
  MemFs::FileRef file_;
};

class MemWritableFile final : public WritableFile {
 public:
  MemWritableFile(MemFs::FileRef file, MemFs* fs)
      : file_(std::move(file)), fs_(fs) {}

  Status Append(const Slice& data) override {
    Status s = fs_->ReserveAppend(data.size());
    if (!s.ok()) return s;
    file_->Append(data.data(), data.size());
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }

  uint64_t GetFileSize() const override { return file_->Size(); }

 private:
  MemFs::FileRef file_;
  MemFs* fs_;
};

}  // namespace

MemEnv::MemEnv() : high_pool_(1), low_pool_(2) {}

Status MemEnv::NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<SequentialFile>* result) {
  MemFs::FileRef file;
  Status s = fs_.Open(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<MemSequentialFile>(std::move(file));
  return Status::OK();
}

Status MemEnv::NewRandomAccessFile(const std::string& fname,
                                   std::unique_ptr<RandomAccessFile>* result) {
  MemFs::FileRef file;
  Status s = fs_.Open(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<MemRandomAccessFile>(std::move(file));
  return Status::OK();
}

Status MemEnv::NewWritableFile(const std::string& fname,
                               std::unique_ptr<WritableFile>* result) {
  *result = std::make_unique<MemWritableFile>(fs_.Create(fname), &fs_);
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& fname) { return fs_.Exists(fname); }

Status MemEnv::GetChildren(const std::string& dir,
                           std::vector<std::string>* result) {
  return fs_.GetChildren(dir, result);
}

Status MemEnv::RemoveFile(const std::string& fname) {
  return fs_.Remove(fname);
}

Status MemEnv::CreateDirIfMissing(const std::string& dirname) {
  return fs_.CreateDirIfMissing(dirname);
}

Status MemEnv::RemoveDir(const std::string& dirname) {
  return fs_.RemoveDir(dirname);
}

Status MemEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return fs_.GetFileSize(fname, size);
}

Status MemEnv::RenameFile(const std::string& src, const std::string& target) {
  return fs_.Rename(src, target);
}

uint64_t MemEnv::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MemEnv::SleepForMicroseconds(uint64_t micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

void MemEnv::Schedule(std::function<void()> job, JobPriority pri) {
  (pri == JobPriority::kHigh ? high_pool_ : low_pool_).Submit(std::move(job));
}

void MemEnv::WaitForBackgroundWork() {
  high_pool_.WaitIdle();
  low_pool_.WaitIdle();
  high_pool_.WaitIdle();
  low_pool_.WaitIdle();
}

void MemEnv::SetBackgroundThreads(int n, JobPriority pri) {
  (pri == JobPriority::kHigh ? high_pool_ : low_pool_)
      .SetBackgroundThreads(n);
}

}  // namespace elmo
