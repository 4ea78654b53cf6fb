// Env: the operating-environment abstraction the LSM engine is written
// against (files, clock, background scheduling), in the style of
// leveldb/rocksdb Env. Three implementations exist:
//
//   PosixEnv  — real files and threads; used by unit tests and examples.
//   MemEnv    — in-memory filesystem with real clock; fast tests.
//   SimEnv    — in-memory filesystem with a *virtual* clock and a device
//               model; every experiment in the paper reproduction runs on
//               it (see sim_env.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace elmo {

class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  // Read up to n bytes. *result may point into scratch.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  // Advisory: subsequent reads will be sequential from `offset` for
  // `length` bytes (compaction readahead). Default no-op.
  virtual void Readahead(uint64_t offset, uint64_t length) {
    (void)offset;
    (void)length;
  }
};

class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Close() = 0;
  virtual Status Flush() = 0;  // push user-space buffer to the "OS"
  virtual Status Sync() = 0;   // durably persist
  // Sync bytes [0, offset); used to implement bytes_per_sync-style
  // incremental syncing. Defaults to full Sync.
  virtual Status RangeSync(uint64_t offset) {
    (void)offset;
    return Sync();
  }
  virtual uint64_t GetFileSize() const = 0;
};

enum class JobPriority { kHigh = 0, kLow = 1 };  // flush vs compaction

class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDirIfMissing(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;
  // Read/write a whole file; convenience built on the primitives.
  Status ReadFileToString(const std::string& fname, std::string* data);
  Status WriteStringToFile(const Slice& data, const std::string& fname,
                           bool sync = false);

  // Free bytes on the device holding `path`. Envs without a capacity
  // notion report effectively-infinite space; MemEnv/SimEnv honor a
  // configured disk capacity so NoSpace handling is testable. The
  // SpaceMonitor (SstFileManager-lite) polls this.
  virtual Status GetFreeSpace(const std::string& path, uint64_t* bytes) {
    (void)path;
    *bytes = UINT64_MAX;
    return Status::OK();
  }

  virtual uint64_t NowMicros() = 0;
  virtual void SleepForMicroseconds(uint64_t micros) = 0;

  // Background work. Deterministic envs (SimEnv) return true from
  // is_deterministic(); the DB then runs background jobs inline under the
  // virtual-time stall model instead of scheduling here.
  virtual void Schedule(std::function<void()> job, JobPriority pri) = 0;
  virtual void WaitForBackgroundWork() = 0;
  virtual void SetBackgroundThreads(int n, JobPriority pri) = 0;
  virtual bool is_deterministic() const { return false; }

  // Charge `micros` of CPU work to the calling context. Real envs ignore
  // this (real time passes); SimEnv advances the virtual clock or the
  // active job meter.
  virtual void ChargeCpu(uint64_t micros) { (void)micros; }

  // Singleton over the host OS.
  static Env* Posix();
};

// An Env that forwards every call to a base Env. Decorators (IO tracing,
// fault injection) derive from it and override only what they change.
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env* base) : base_(base) {}

  Env* base() const { return base_; }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status GetFreeSpace(const std::string& path, uint64_t* bytes) override {
    return base_->GetFreeSpace(path, bytes);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(uint64_t micros) override {
    base_->SleepForMicroseconds(micros);
  }
  void Schedule(std::function<void()> job, JobPriority pri) override {
    base_->Schedule(std::move(job), pri);
  }
  void WaitForBackgroundWork() override { base_->WaitForBackgroundWork(); }
  void SetBackgroundThreads(int n, JobPriority pri) override {
    base_->SetBackgroundThreads(n, pri);
  }
  bool is_deterministic() const override { return base_->is_deterministic(); }
  void ChargeCpu(uint64_t micros) override { base_->ChargeCpu(micros); }

 private:
  Env* const base_;
};

}  // namespace elmo
