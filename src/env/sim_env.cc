#include "env/sim_env.h"

#include <algorithm>

namespace elmo {

namespace {

// File wrappers: identical data paths to MemEnv's, plus cost charging
// into the owning SimEnv.

class SimSequentialFile final : public SequentialFile {
 public:
  SimSequentialFile(MemFs::FileRef file, SimEnv* env)
      : file_(std::move(file)), env_(env) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t to_read;
    const size_t offset = pos_;
    if (!file_->Read(offset, n, scratch, &to_read)) {
      *result = Slice();
      return Status::OK();
    }
    pos_ += to_read;
    env_->ChargeRead(file_.get(), offset, to_read);
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  MemFs::FileRef file_;
  SimEnv* env_;
  size_t pos_ = 0;
};

class SimRandomAccessFile final : public RandomAccessFile {
 public:
  SimRandomAccessFile(MemFs::FileRef file, SimEnv* env)
      : file_(std::move(file)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    size_t to_read;
    if (!file_->Read(offset, n, scratch, &to_read)) {
      *result = Slice();
      return Status::OK();
    }
    bool in_window;
    {
      std::lock_guard<std::mutex> l(mu_);
      in_window = (offset >= ra_begin_ && offset + to_read <= ra_end_);
    }
    if (in_window) {
      // Already staged by a Readahead call.
      env_->ChargeCachedRead(to_read);
    } else {
      env_->ChargeRead(file_.get(), offset, to_read);
    }
    *result = Slice(scratch, to_read);
    return Status::OK();
  }

  void Readahead(uint64_t offset, uint64_t length) override {
    uint64_t end = std::min(offset + length, file_->Size());
    if (end <= offset) return;
    // One positioning IO + streaming the whole window; reads inside the
    // window then cost DRAM only.
    env_->ChargeReadahead(file_.get(), offset, end - offset);
    std::lock_guard<std::mutex> l(mu_);
    ra_begin_ = offset;
    ra_end_ = end;
  }

 private:
  MemFs::FileRef file_;
  SimEnv* env_;
  mutable std::mutex mu_;
  mutable uint64_t ra_begin_ = 0;
  mutable uint64_t ra_end_ = 0;
};

class SimWritableFile final : public WritableFile {
 public:
  SimWritableFile(MemFs::FileRef file, SimEnv* env)
      : file_(std::move(file)), env_(env) {}
  ~SimWritableFile() override = default;

  Status Append(const Slice& data) override {
    Status s = env_->fs()->ReserveAppend(data.size());
    if (!s.ok()) return s;
    size_ = file_->Append(data.data(), data.size());
    env_->ChargeAppend(&dirty_, data.size());
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    env_->ChargeSync(&dirty_);
    return Status::OK();
  }

  Status RangeSync(uint64_t offset) override {
    // Sync everything buffered up to `offset`; we approximate by
    // draining min(dirty, offset) bytes.
    env_->ChargeRangeSync(&dirty_, offset);
    return Status::OK();
  }

  uint64_t GetFileSize() const override { return size_; }

 private:
  MemFs::FileRef file_;
  SimEnv* env_;
  uint64_t dirty_ = 0;
  uint64_t size_ = 0;
};

}  // namespace

SimEnv::SimEnv(const HardwareProfile& hw, uint64_t seed)
    : hw_(hw), rng_(seed) {
  lanes_.Configure(hw_.cpu_cores, /*flush_slots=*/1, /*compaction_slots=*/2);
}

Status SimEnv::NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<SequentialFile>* result) {
  MemFs::FileRef file;
  Status s = fs_.Open(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<SimSequentialFile>(std::move(file), this);
  return Status::OK();
}

Status SimEnv::NewRandomAccessFile(const std::string& fname,
                                   std::unique_ptr<RandomAccessFile>* result) {
  MemFs::FileRef file;
  Status s = fs_.Open(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<SimRandomAccessFile>(std::move(file), this);
  return Status::OK();
}

Status SimEnv::NewWritableFile(const std::string& fname,
                               std::unique_ptr<WritableFile>* result) {
  *result = std::make_unique<SimWritableFile>(fs_.Create(fname), this);
  return Status::OK();
}

bool SimEnv::FileExists(const std::string& fname) { return fs_.Exists(fname); }

Status SimEnv::GetChildren(const std::string& dir,
                           std::vector<std::string>* result) {
  return fs_.GetChildren(dir, result);
}

Status SimEnv::RemoveFile(const std::string& fname) {
  return fs_.Remove(fname);
}

Status SimEnv::CreateDirIfMissing(const std::string& dirname) {
  return fs_.CreateDirIfMissing(dirname);
}

Status SimEnv::RemoveDir(const std::string& dirname) {
  return fs_.RemoveDir(dirname);
}

Status SimEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return fs_.GetFileSize(fname, size);
}

Status SimEnv::RenameFile(const std::string& src, const std::string& target) {
  return fs_.Rename(src, target);
}

uint64_t SimEnv::NowMicros() {
  std::lock_guard<std::mutex> l(mu_);
  return clock_us_ + (meter_active_ ? meter_us_ : 0);
}

void SimEnv::SleepForMicroseconds(uint64_t micros) { Charge(micros); }

void SimEnv::Schedule(std::function<void()> job, JobPriority pri) {
  // The DB's deterministic path never reaches here (it runs jobs inline
  // under a meter); run immediately so misuse stays functional.
  (void)pri;
  job();
}

void SimEnv::SetBackgroundThreads(int n, JobPriority pri) {
  // Lane counts are configured via ConfigureLanes from options; keep a
  // compatible behavior for callers using the generic Env API.
  std::lock_guard<std::mutex> l(mu_);
  (void)n;
  (void)pri;
}

void SimEnv::ChargeCpu(uint64_t micros) {
  std::lock_guard<std::mutex> l(mu_);
  if (!meter_active_) {
    // Foreground work competes with background jobs for cores: when all
    // cores are busy compacting/flushing, a foreground op runs slower.
    int busy = lanes_.BusyCores(clock_us_);
    int cores = lanes_.num_cores();
    if (busy >= cores) {
      micros += micros;  // 2x when fully saturated
    } else if (busy > 0) {
      micros += micros * busy / (2 * cores);
    }
  }
  if (meter_active_) {
    meter_us_ += static_cast<uint64_t>(micros * PagingPenalty());
  } else {
    clock_us_ += static_cast<uint64_t>(micros * PagingPenalty());
  }
}

void SimEnv::BeginJobMeter() {
  std::lock_guard<std::mutex> l(mu_);
  meter_active_ = true;
  meter_us_ = 0;
}

uint64_t SimEnv::EndJobMeter() {
  std::lock_guard<std::mutex> l(mu_);
  meter_active_ = false;
  return meter_us_;
}

uint64_t SimEnv::ScheduleBackgroundJob(JobPriority pri, uint64_t ready_us,
                                       uint64_t duration_us) {
  std::lock_guard<std::mutex> l(mu_);
  return lanes_.Schedule(pri, ready_us, duration_us);
}

void SimEnv::ConfigureLanes(int flush_slots, int compaction_slots) {
  std::lock_guard<std::mutex> l(mu_);
  lanes_.Configure(hw_.cpu_cores, flush_slots, compaction_slots);
}

void SimEnv::AdvanceTo(uint64_t micros) {
  std::lock_guard<std::mutex> l(mu_);
  if (micros > clock_us_) clock_us_ = micros;
}

uint64_t SimEnv::NextBackgroundCompletionAfter(uint64_t now) const {
  std::lock_guard<std::mutex> l(mu_);
  return lanes_.NextCompletionAfter(now);
}

void SimEnv::SetAppMemoryFootprint(uint64_t bytes) {
  std::lock_guard<std::mutex> l(mu_);
  app_footprint_ = bytes;
}

void SimEnv::SetFootprintScale(uint64_t scale) {
  std::lock_guard<std::mutex> l(mu_);
  footprint_scale_ = scale == 0 ? 1 : scale;
}

SimEnv::IoStats SimEnv::io_stats() const {
  std::lock_guard<std::mutex> l(mu_);
  return stats_;
}

void SimEnv::Charge(uint64_t micros) {
  std::lock_guard<std::mutex> l(mu_);
  if (meter_active_) {
    meter_us_ += static_cast<uint64_t>(micros * PagingPenalty());
  } else {
    clock_us_ += static_cast<uint64_t>(micros * PagingPenalty());
  }
}

double SimEnv::PagingPenalty() const {
  // Callers hold mu_.
  uint64_t claimed = app_footprint_ * footprint_scale_ + kOsBaselineBytes;
  if (claimed <= hw_.memory_bytes) return 1.0;
  double overshoot = static_cast<double>(claimed - hw_.memory_bytes) /
                     static_cast<double>(hw_.memory_bytes);
  // Thrashing ramps up quickly once real memory is exceeded.
  return 1.0 + 6.0 * overshoot;
}

bool SimEnv::PageCacheHit(uint64_t n) {
  (void)n;
  // Callers hold mu_. Page cache = memory left after OS + application.
  uint64_t claimed = app_footprint_ * footprint_scale_ + kOsBaselineBytes;
  if (claimed >= hw_.memory_bytes) return false;
  uint64_t pagecache = (hw_.memory_bytes - claimed) / kPageCacheScale;
  if (refresh_countdown_-- == 0) {
    refresh_countdown_ = 255;
    // MemFs has its own lock and never calls back into SimEnv, so this
    // is safe to do under mu_.
    dataset_bytes_cache_ = fs_.TotalBytes();
  }
  uint64_t dataset = dataset_bytes_cache_;
  if (dataset <= pagecache) return true;
  double p = static_cast<double>(pagecache) / static_cast<double>(dataset);
  return rng_.NextDouble() < p;
}

void SimEnv::ChargeRead(const void* file_identity, uint64_t offset,
                        uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  stats_.reads++;
  stats_.read_bytes += n;
  uint64_t cost;
  if (PageCacheHit(n)) {
    stats_.pagecache_hits++;
    cost = std::max<uint64_t>(1, n * 1000000 / kDramBps);
    // Page-cache hits do not move the device head.
  } else {
    const bool sequential =
        (file_identity == head_file_ && offset == head_offset_);
    cost = hw_.device.ReadCostMicros(n, sequential);
    head_file_ = file_identity;
    head_offset_ = offset + n;
  }
  ChargeLocked(cost);
}

void SimEnv::ChargeCachedRead(uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  stats_.reads++;
  stats_.read_bytes += n;
  stats_.pagecache_hits++;
  ChargeLocked(std::max<uint64_t>(1, n * 1000000 / kDramBps));
}

void SimEnv::ChargeReadahead(const void* file_identity, uint64_t offset,
                             uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  stats_.reads++;
  stats_.read_bytes += n;
  uint64_t cost = hw_.device.ReadCostMicros(
      n, file_identity == head_file_ && offset == head_offset_);
  head_file_ = file_identity;
  head_offset_ = offset + n;
  ChargeLocked(cost);
}

void SimEnv::ChargeAppend(uint64_t* dirty_counter, uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  stats_.writes++;
  stats_.write_bytes += n;
  *dirty_counter += n;
  global_dirty_ += n;
  uint64_t cost = std::max<uint64_t>(1, n * 1000000 / kDramBps);
  if (global_dirty_ > kOsDirtyLimit) {
    // The OS dirty-pool limit tripped: the writer that crossed it is
    // forced to drain half the pool synchronously — a long, bursty
    // stall. Incremental syncing (bytes_per_sync / wal_bytes_per_sync)
    // exists precisely to avoid ever reaching this point.
    stats_.writeback_stalls++;
    uint64_t drain = global_dirty_ / 2;
    cost += hw_.device.SyncCostMicros(drain);
    global_dirty_ -= drain;
    if (*dirty_counter > drain) {
      *dirty_counter -= drain;
    } else {
      *dirty_counter = 0;
    }
  }
  ChargeLocked(cost);
}

void SimEnv::ChargeSync(uint64_t* dirty_counter) {
  std::lock_guard<std::mutex> l(mu_);
  stats_.syncs++;
  uint64_t cost = hw_.device.SyncCostMicros(*dirty_counter);
  global_dirty_ -= std::min(global_dirty_, *dirty_counter);
  *dirty_counter = 0;
  ChargeLocked(cost);
}

void SimEnv::ChargeRangeSync(uint64_t* dirty_counter, uint64_t max_bytes) {
  std::lock_guard<std::mutex> l(mu_);
  stats_.syncs++;
  uint64_t drained = std::min(*dirty_counter, max_bytes);
  uint64_t cost = hw_.device.SyncCostMicros(drained);
  *dirty_counter -= drained;
  global_dirty_ -= std::min(global_dirty_, drained);
  ChargeLocked(cost);
}

void SimEnv::ChargeLocked(uint64_t micros) {
  // Callers hold mu_.
  if (meter_active_) {
    meter_us_ += static_cast<uint64_t>(micros * PagingPenalty());
  } else {
    clock_us_ += static_cast<uint64_t>(micros * PagingPenalty());
  }
}

}  // namespace elmo
