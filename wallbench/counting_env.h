// CountingEnv: an Env decorator owned by the benchmark. It forwards
// every call to the wrapped Env (MemEnv here) and counts reads, writes,
// bytes and syncs per file kind with relaxed atomics in every run; in
// the traced run each file operation also opens a span. Write and space
// amplification are computed from these counts, not from engine
// tickers, so the numbers stay defined however the engine's own
// telemetry changes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"

namespace wallbench {

enum class FileKind { kWal = 0, kSst, kManifest, kOther, kCount };

struct KindCounts {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t syncs = 0;
};

// Marks the calling thread as inside a benchmark Get, so reads it
// issues are also counted as foreground (Get-path) reads.
class GetScope {
 public:
  GetScope();
  ~GetScope();
  GetScope(const GetScope&) = delete;
  GetScope& operator=(const GetScope&) = delete;
};

class CountingEnv : public elmo::Env {
 public:
  struct alignas(64) Counters {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> syncs{0};
  };

  explicit CountingEnv(elmo::Env* base) : base_(base) {}

  KindCounts Counts(FileKind kind) const;
  // SST reads issued from inside a GetScope.
  KindCounts GetPathSstCounts() const;
  // Sum of the sizes of the files now under `dir`, by kind.
  uint64_t FileBytes(const std::string& dir, FileKind kind);
  uint64_t FileBytes(const std::string& dir);

  elmo::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<elmo::SequentialFile>* result) override;
  elmo::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<elmo::RandomAccessFile>* result) override;
  elmo::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<elmo::WritableFile>* result) override;

  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  elmo::Status GetChildren(const std::string& dir,
                           std::vector<std::string>* r) override {
    return base_->GetChildren(dir, r);
  }
  elmo::Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  elmo::Status CreateDirIfMissing(const std::string& d) override {
    return base_->CreateDirIfMissing(d);
  }
  elmo::Status RemoveDir(const std::string& d) override {
    return base_->RemoveDir(d);
  }
  elmo::Status GetFileSize(const std::string& f, uint64_t* s) override {
    return base_->GetFileSize(f, s);
  }
  elmo::Status RenameFile(const std::string& src,
                          const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  elmo::Status GetFreeSpace(const std::string& path,
                            uint64_t* bytes) override {
    return base_->GetFreeSpace(path, bytes);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(uint64_t micros) override {
    base_->SleepForMicroseconds(micros);
  }
  void Schedule(std::function<void()> job, elmo::JobPriority pri) override {
    base_->Schedule(std::move(job), pri);
  }
  void WaitForBackgroundWork() override { base_->WaitForBackgroundWork(); }
  void SetBackgroundThreads(int n, elmo::JobPriority pri) override {
    base_->SetBackgroundThreads(n, pri);
  }
  bool is_deterministic() const override { return base_->is_deterministic(); }
  void ChargeCpu(uint64_t micros) override { base_->ChargeCpu(micros); }

 private:
  Counters* counters(FileKind kind) {
    return &counters_[static_cast<int>(kind)];
  }

  elmo::Env* const base_;
  Counters counters_[static_cast<int>(FileKind::kCount)];
  Counters get_path_sst_;
};

}  // namespace wallbench
