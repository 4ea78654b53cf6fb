#include "fault/fault_injection_env.h"

#include <algorithm>
#include <utility>

namespace elmo {

namespace {

constexpr uint64_t kPageSize = 4096;

Status Dead(const char* what) {
  return Status::IOError(std::string("fault: filesystem inactive (") + what +
                         ")");
}

}  // namespace

// ---------------------------------------------------------------------
// File wrappers.

class FaultSequentialFile : public SequentialFile {
 public:
  FaultSequentialFile(FaultInjectionEnv* env, std::string fname,
                      std::unique_ptr<SequentialFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) s = env_->MaybeInjectReadFault(fname_, result);
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<SequentialFile> base_;
};

class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultInjectionEnv* env, std::string fname,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) s = env_->MaybeInjectReadFault(fname_, result);
    return s;
  }
  void Readahead(uint64_t offset, uint64_t length) override {
    base_->Readahead(offset, length);
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<RandomAccessFile> base_;
};

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string fname,
                    std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    if (!env_->filesystem_active()) return Dead("append");
    Status s = env_->MaybeInjectWriteError(fname_);
    if (!s.ok()) return s;
    s = base_->Append(data);
    if (s.ok()) env_->OnAppend(fname_, data.size());
    return s;
  }

  Status Close() override {
    // Closing is allowed on a dead filesystem (the process is tearing
    // down its own memory, not the device), but confers no durability.
    return base_->Close();
  }

  Status Flush() override {
    // Flush pushes user-space buffers toward the OS; it is not a
    // durability barrier, so the synced watermark does not move.
    if (!env_->filesystem_active()) return Dead("flush");
    return base_->Flush();
  }

  Status Sync() override {
    if (!env_->filesystem_active()) return Dead("sync");
    bool lied = false;
    Status s = env_->MaybeInjectSyncError(fname_, &lied);
    if (!s.ok()) return s;
    s = base_->Sync();
    if (s.ok() && !lied) env_->OnSync(fname_);
    return s;
  }

  Status RangeSync(uint64_t offset) override {
    if (!env_->filesystem_active()) return Dead("range_sync");
    bool lied = false;
    Status s = env_->MaybeInjectSyncError(fname_, &lied);
    if (!s.ok()) return s;
    s = base_->RangeSync(offset);
    if (s.ok() && !lied) env_->OnRangeSync(fname_, offset);
    return s;
  }

  uint64_t GetFileSize() const override { return base_->GetFileSize(); }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<WritableFile> base_;
};

// ---------------------------------------------------------------------
// FaultInjectionEnv.

FaultInjectionEnv::FaultInjectionEnv(Env* base, uint64_t seed)
    : EnvWrapper(base), rng_(seed) {}

FaultInjectionEnv::~FaultInjectionEnv() = default;

void FaultInjectionEnv::SetFilesystemActive(bool active) {
  active_.store(active, std::memory_order_release);
}

Status FaultInjectionEnv::DropUnsyncedData(DropMode mode) {
  std::lock_guard<std::mutex> l(mu_);
  // std::map iterates in name order, so the per-file random tear points
  // consume the rng in a deterministic sequence.
  for (auto& [fname, state] : files_) {
    if (state.size <= state.synced) continue;
    uint64_t keep = state.synced;
    const uint64_t unsynced = state.size - state.synced;
    switch (mode) {
      case DropMode::kDropAll:
        break;
      case DropMode::kTornTail:
        keep += rng_.Uniform(unsynced + 1);
        break;
      case DropMode::kPartialPage: {
        const uint64_t torn = keep + rng_.Uniform(unsynced + 1);
        keep = std::max(state.synced, (torn / kPageSize) * kPageSize);
        break;
      }
    }
    if (!base()->FileExists(fname)) {
      // Created but already unlinked underneath us; nothing to rewind.
      state.size = state.synced = 0;
      continue;
    }
    std::string contents;
    Status s = base()->ReadFileToString(fname, &contents);
    if (!s.ok()) return s;
    if (contents.size() > keep) contents.resize(keep);
    std::unique_ptr<WritableFile> f;
    s = base()->NewWritableFile(fname, &f);  // truncates
    if (!s.ok()) return s;
    if (!contents.empty()) s = f->Append(contents);
    if (s.ok()) s = f->Sync();
    if (s.ok()) s = f->Close();
    if (!s.ok()) return s;
    counters_.files_dropped++;
    counters_.bytes_dropped += state.size - keep;
    state.size = keep;
    state.synced = keep;
  }
  return Status::OK();
}

void FaultInjectionEnv::SetErrorInjection(const FaultInjectionConfig& config) {
  std::lock_guard<std::mutex> l(mu_);
  cfg_ = config;
  burst_ops_seen_ = 0;
  inject_ = cfg_.read_error > 0 || cfg_.write_error > 0 ||
            cfg_.sync_error > 0 || cfg_.short_read > 0 ||
            cfg_.read_corruption > 0 || cfg_.lie_on_wal_sync;
}

void FaultInjectionEnv::ClearErrorInjection() {
  std::lock_guard<std::mutex> l(mu_);
  cfg_ = FaultInjectionConfig();
  inject_ = false;
}

bool FaultInjectionEnv::InjectionArmed() const {
  std::lock_guard<std::mutex> l(mu_);
  if (!inject_) return false;
  return cfg_.transient_ops == 0 || burst_ops_seen_ < cfg_.transient_ops;
}

bool FaultInjectionEnv::InjectionLiveLocked() {
  if (!inject_) return false;
  if (cfg_.transient_ops > 0) {
    if (burst_ops_seen_ >= cfg_.transient_ops) {
      // The burst ran its course: the device is healthy again.
      cfg_ = FaultInjectionConfig();
      inject_ = false;
      counters_.transient_expiries++;
      return false;
    }
    burst_ops_seen_++;
  }
  return true;
}

Status FaultInjectionEnv::InjectedError(const std::string& what,
                                        const std::string& fname) const {
  const std::string msg = "fault: injected " + what + " on " + fname;
  return cfg_.retryable ? Status::RetryableIOError(msg) : Status::IOError(msg);
}

FaultCounters FaultInjectionEnv::counters() const {
  std::lock_guard<std::mutex> l(mu_);
  return counters_;
}

void FaultInjectionEnv::ResetState() {
  std::lock_guard<std::mutex> l(mu_);
  files_.clear();
}

uint64_t FaultInjectionEnv::SyncedBytes(const std::string& fname) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(fname);
  return it == files_.end() ? 0 : it->second.synced;
}

uint64_t FaultInjectionEnv::TrackedSize(const std::string& fname) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(fname);
  return it == files_.end() ? 0 : it->second.size;
}

bool FaultInjectionEnv::IsTracked(const std::string& fname) const {
  std::lock_guard<std::mutex> l(mu_);
  return files_.count(fname) > 0;
}

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> inner;
  Status s = base()->NewSequentialFile(fname, &inner);
  if (!s.ok()) return s;
  *result = std::make_unique<FaultSequentialFile>(this, fname,
                                                  std::move(inner));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> inner;
  Status s = base()->NewRandomAccessFile(fname, &inner);
  if (!s.ok()) return s;
  *result = std::make_unique<FaultRandomAccessFile>(this, fname,
                                                    std::move(inner));
  return Status::OK();
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  if (!filesystem_active()) return Dead("create");
  std::unique_ptr<WritableFile> inner;
  Status s = base()->NewWritableFile(fname, &inner);
  if (!s.ok()) return s;
  {
    // Creation truncates: nothing of this name is durable any more.
    std::lock_guard<std::mutex> l(mu_);
    files_[fname] = FileState{};
  }
  *result = std::make_unique<FaultWritableFile>(this, fname, std::move(inner));
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  if (!filesystem_active()) return Dead("remove");
  Status s = base()->RemoveFile(fname);
  if (s.ok()) {
    std::lock_guard<std::mutex> l(mu_);
    files_.erase(fname);
  }
  return s;
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& dirname) {
  if (!filesystem_active()) return Dead("mkdir");
  return base()->CreateDirIfMissing(dirname);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dirname) {
  if (!filesystem_active()) return Dead("rmdir");
  return base()->RemoveDir(dirname);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  if (!filesystem_active()) return Dead("rename");
  Status s = base()->RenameFile(src, target);
  if (s.ok()) {
    // Durability travels with the bytes: the target inherits the
    // source's synced watermark (rename of a fully synced temp file is
    // how CURRENT is swapped atomically).
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      files_[target] = it->second;
      files_.erase(it);
    } else {
      files_.erase(target);
    }
  }
  return s;
}

// ---------------------------------------------------------------------
// Bookkeeping + injection.

void FaultInjectionEnv::OnAppend(const std::string& fname, uint64_t bytes) {
  std::lock_guard<std::mutex> l(mu_);
  files_[fname].size += bytes;
}

void FaultInjectionEnv::OnSync(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  auto& st = files_[fname];
  st.synced = st.size;
}

void FaultInjectionEnv::OnRangeSync(const std::string& fname,
                                    uint64_t offset) {
  std::lock_guard<std::mutex> l(mu_);
  auto& st = files_[fname];
  st.synced = std::max(st.synced, std::min(offset, st.size));
}

bool FaultInjectionEnv::KindEligibleLocked(const std::string& fname) const {
  if (cfg_.kinds.empty()) return true;
  return cfg_.kinds.count(
             ClassifyIOFileKind(fname, CurrentIOMetadataHint())) > 0;
}

Status FaultInjectionEnv::MaybeInjectWriteError(const std::string& fname) {
  std::lock_guard<std::mutex> l(mu_);
  if (!InjectionLiveLocked() || cfg_.write_error <= 0 ||
      !KindEligibleLocked(fname)) {
    return Status::OK();
  }
  if (rng_.NextDouble() < cfg_.write_error) {
    counters_.write_errors++;
    return InjectedError("write error", fname);
  }
  return Status::OK();
}

Status FaultInjectionEnv::MaybeInjectSyncError(const std::string& fname,
                                               bool* lied) {
  *lied = false;
  std::lock_guard<std::mutex> l(mu_);
  if (!InjectionLiveLocked()) return Status::OK();
  const IOFileKind kind = ClassifyIOFileKind(fname, false);
  if (cfg_.lie_on_wal_sync && kind == IOFileKind::kWal) {
    counters_.wal_sync_lies++;
    *lied = true;
    return Status::OK();
  }
  if (cfg_.sync_error <= 0 || !KindEligibleLocked(fname)) return Status::OK();
  if (rng_.NextDouble() < cfg_.sync_error) {
    counters_.sync_errors++;
    return InjectedError("sync error", fname);
  }
  return Status::OK();
}

Status FaultInjectionEnv::MaybeInjectReadFault(const std::string& fname,
                                               Slice* result) {
  std::lock_guard<std::mutex> l(mu_);
  if (!InjectionLiveLocked() || !KindEligibleLocked(fname)) {
    return Status::OK();
  }
  if (cfg_.read_error > 0 && rng_.NextDouble() < cfg_.read_error) {
    counters_.read_errors++;
    return InjectedError("read error", fname);
  }
  if (cfg_.short_read > 0 && result->size() > 1 &&
      rng_.NextDouble() < cfg_.short_read) {
    counters_.short_reads++;
    *result = Slice(result->data(), result->size() / 2);
    return Status::OK();
  }
  if (cfg_.read_corruption > 0 && !result->empty() &&
      rng_.NextDouble() < cfg_.read_corruption) {
    counters_.read_corruptions++;
    // The result of every env in this repo points into the caller's
    // scratch buffer, so flipping through it is safe; block CRCs are
    // expected to catch the damage downstream.
    char* bytes = const_cast<char*>(result->data());
    const uint64_t pos = rng_.Uniform(result->size());
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1u << rng_.Uniform(8)));
  }
  return Status::OK();
}

}  // namespace elmo
