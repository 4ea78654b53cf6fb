#include "lsm/db_impl.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "env/io_trace.h"
#include "fault/kill_point.h"
#include "lsm/cost_model.h"
#include "lsm/db_iter.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/merger.h"
#include "lsm/options_file.h"
#include "lsm/options_schema.h"
#include "monitor/prometheus.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace elmo::lsm {

namespace {

// Applies the bytes_per_sync policy: forwards writes and issues a
// RangeSync each time `interval` new bytes have been appended.
class SyncingWritableFile : public WritableFile {
 public:
  SyncingWritableFile(std::unique_ptr<WritableFile> target, uint64_t interval,
                      bool strict)
      : target_(std::move(target)), interval_(interval), strict_(strict) {}

  Status Append(const Slice& data) override {
    Status s = target_->Append(data);
    if (!s.ok() || interval_ == 0) return s;
    since_sync_ += data.size();
    while (since_sync_ >= interval_) {
      // Strict mode syncs exactly one interval per boundary; relaxed
      // mode drains everything accumulated so far.
      s = target_->RangeSync(strict_ ? interval_ : since_sync_);
      if (!s.ok()) return s;
      if (strict_) {
        since_sync_ -= interval_;
      } else {
        since_sync_ = 0;
      }
    }
    return s;
  }

  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override { return target_->Sync(); }
  Status RangeSync(uint64_t offset) override {
    return target_->RangeSync(offset);
  }
  uint64_t GetFileSize() const override { return target_->GetFileSize(); }

 private:
  std::unique_ptr<WritableFile> target_;
  const uint64_t interval_;
  const bool strict_;
  uint64_t since_sync_ = 0;
};

// Keeps arbitrary shared state (memtables, versions) alive for the
// lifetime of a wrapped iterator.
class RefHolderIterator : public Iterator {
 public:
  RefHolderIterator(std::unique_ptr<Iterator> inner,
                    std::vector<std::shared_ptr<void>> refs)
      : inner_(std::move(inner)), refs_(std::move(refs)) {}

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override { inner_->SeekToFirst(); }
  void SeekToLast() override { inner_->SeekToLast(); }
  void Seek(const Slice& t) override { inner_->Seek(t); }
  void Next() override { inner_->Next(); }
  void Prev() override { inner_->Prev(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<Iterator> inner_;
  std::vector<std::shared_ptr<void>> refs_;
};

Options SanitizeOptions(const Options& src) {
  Options o = src;
  if (o.env == nullptr) o.env = Env::Posix();
  if (o.info_log == nullptr) o.info_log = std::make_shared<NullLogger>();
  o.max_write_buffer_number = std::max(2, o.max_write_buffer_number);
  o.min_write_buffer_number_to_merge =
      std::min(o.min_write_buffer_number_to_merge,
               o.max_write_buffer_number - 1);
  o.min_write_buffer_number_to_merge =
      std::max(1, o.min_write_buffer_number_to_merge);
  o.level0_slowdown_writes_trigger =
      std::max(o.level0_slowdown_writes_trigger,
               o.level0_file_num_compaction_trigger);
  o.level0_stop_writes_trigger = std::max(o.level0_stop_writes_trigger,
                                          o.level0_slowdown_writes_trigger);
  o.num_levels = std::clamp(o.num_levels, 2, 12);
  o.write_buffer_size = std::max<uint64_t>(o.write_buffer_size, 1 << 16);
  o.stats_history_size = std::max<uint64_t>(o.stats_history_size, 16);
  return o;
}

// The deterministic inline-background-work path must engage whenever a
// SimEnv sits anywhere under the user's env, below any stack of
// decorators (stress runs pass FaultInjectionEnv(SimEnv) as options.env).
SimEnv* FindSimEnv(Env* env) {
  while (auto* wrapper = dynamic_cast<EnvWrapper*>(env)) env = wrapper->base();
  return dynamic_cast<SimEnv*>(env);
}

uint32_t CurrentThreadId32() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

// Forwards every batch entry to the trace writer, all stamped with the
// batch's arrival time: replay sees the batch as one arrival, matching
// how the write path treated it.
class TraceBatchHandler : public WriteBatch::Handler {
 public:
  TraceBatchHandler(TraceWriter* writer, uint64_t ts_us, uint32_t thread_id)
      : writer_(writer), ts_us_(ts_us), thread_id_(thread_id) {}

  void Put(const Slice& key, const Slice& value) override {
    writer_->AddRecord(TraceOp::kPut, ts_us_, thread_id_, key,
                       static_cast<uint32_t>(value.size()));
  }
  void Delete(const Slice& key) override {
    writer_->AddRecord(TraceOp::kDelete, ts_us_, thread_id_, key, 0);
  }

 private:
  TraceWriter* const writer_;
  const uint64_t ts_us_;
  const uint32_t thread_id_;
};

}  // namespace

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname)
    : options_(SanitizeOptions(raw_options)),
      dbname_(dbname),
      raw_env_(options_.env),
      io_env_(std::make_unique<IOTracingEnv>(raw_env_)),
      env_(io_env_.get()),
      sim_(FindSimEnv(raw_env_)),
      block_cache_(NewLruCache(options_.block_cache_size)),
      block_cache_tracer_(std::make_shared<BlockCacheTracer>(raw_env_)),
      internal_comparator_(BytewiseComparator()),
      error_handler_(ErrorHandlerConfig{
          options_.max_bgerror_resume_count,
          options_.bgerror_resume_retry_interval_ms * 1000,
          options_.bgerror_resume_max_backoff_ms * 1000}),
      slowdown_limiter_(options_.delayed_write_rate) {
  // Span-trace output bypasses the IO-tracing wrapper, like the other
  // observability sinks, so observing the engine never perturbs the
  // evidence it produces.
  span_tracer_ = std::make_unique<SpanTracer>(raw_env_);
  span_baseline_ = GlobalSpanAggregate()->GetSnapshot();
  // Everything that takes an Env from the options (TableCache,
  // VersionSet, OPTIONS persistence, ...) must go through the tracing
  // wrapper, so repoint the sanitized copy at it.
  options_.env = env_;
  table_cache_ = std::make_unique<TableCache>(
      dbname_, options_, &internal_comparator_, block_cache_,
      block_cache_tracer_,
      options_.max_open_files < 0 ? (1 << 20) : options_.max_open_files);
  versions_ = std::make_unique<VersionSet>(dbname_, &options_,
                                           table_cache_.get(),
                                           &internal_comparator_);
  if (sim_ != nullptr) {
    sim_->ConfigureLanes(options_.ResolvedFlushSlots(),
                         options_.ResolvedCompactionSlots());
    sim_->SetAppMemoryFootprint(options_.ConfiguredMemoryFootprint());
  } else {
    env_->SetBackgroundThreads(options_.ResolvedFlushSlots(),
                               JobPriority::kHigh);
    env_->SetBackgroundThreads(options_.ResolvedCompactionSlots(),
                               JobPriority::kLow);
  }
  if (options_.free_space_reserved_bytes > 0) {
    space_monitor_ = std::make_unique<SpaceMonitor>(
        env_, dbname_, options_.free_space_reserved_bytes,
        options_.free_space_poll_interval_ms * 1000);
  }
  if (options_.stats_sample_interval_ms > 0) {
    sampler_interval_ms_.store(options_.stats_sample_interval_ms,
                               std::memory_order_relaxed);
    sampler_ = std::make_unique<StatsSampler>(
        &stats_, options_.stats_sample_interval_ms * 1000,
        static_cast<size_t>(options_.stats_history_size), env_->NowMicros());
    if (options_.enable_health_monitor) {
      monitor::MonitorConfig mc;
      mc.engine = options_;
      health_ = std::make_unique<monitor::HealthMonitor>(mc);
    }
  }
}

DBImpl::~DBImpl() {
  shutting_down_.store(true);
  if (sim_ == nullptr) {
    env_->WaitForBackgroundWork();
  }
  // Stop the auto-resume thread first: a recovery attempt must not race
  // the teardown of the state it would repair.
  if (recovery_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> rl(recovery_mu_);
      recovery_stop_ = true;
    }
    recovery_cv_.notify_all();
    recovery_thread_.join();
  }
  // Stop the sampler thread before touching any observability sink: a
  // tick must never race the LOG/trace teardown below or outlive the
  // Env.
  if (sampler_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> sl(sampler_mu_);
      sampler_stop_ = true;
    }
    sampler_cv_.notify_all();
    sampler_thread_.join();
  }
  // Flush + sync every active trace; an inactive one returns
  // InvalidArgument and logs nothing.
  EndTrace();
  EndIOTrace();
  EndBlockCacheTrace();
  EndSpanTrace();
  {
    // Fold the final cache + logger-loss counters into the tickers so
    // post-close stats snapshots are complete, and leave a final metrics
    // exposition behind for scrapers that outlive the process.
    std::lock_guard<std::mutex> l(mu_);
    SyncCacheStatsLocked();
    SyncLogStatsLocked();
    ExportMetricsLocked();
  }
  if (info_event_log_ != nullptr) {
    json::Object fields;
    fields["lines"] =
        static_cast<int64_t>(info_event_log_->lines_written());
    // A BufferLogger that hit its line cap makes truncation detectable
    // post-mortem.
    if (auto* buffered = dynamic_cast<BufferLogger*>(options_.info_log.get())) {
      fields["info_log_dropped_lines"] =
          static_cast<int64_t>(buffered->dropped_lines());
    }
    info_event_log_->LogEvent("close", std::move(fields));
    info_event_log_->Close();
  }
}

// ---------------------------------------------------------------------
// Open / recovery

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  auto impl = std::make_unique<DBImpl>(options, name);
  Status s = impl->Recover();
  if (!s.ok()) return s;
  *dbptr = std::move(impl);
  return Status::OK();
}

Status DB::DestroyDB(const std::string& name, const Options& options) {
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  std::vector<std::string> filenames;
  Status result = env->GetChildren(name, &filenames);
  if (!result.ok()) {
    return Status::OK();  // nothing to destroy
  }
  for (const auto& f : filenames) {
    uint64_t number;
    FileType type;
    if (ParseFileName(f, &number, &type)) {
      Status del = env->RemoveFile(name + "/" + f);
      if (result.ok() && !del.ok()) result = del;
    }
  }
  env->RemoveDir(name);
  return result;
}

Status DBImpl::NewDBFiles() {
  VersionEdit new_db;
  new_db.SetComparatorName(internal_comparator_.user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(manifest, &file);
  if (!s.ok()) return s;
  {
    log::Writer log(file.get());
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(Slice(record));
    if (s.ok()) s = file->Sync();
    if (s.ok()) s = file->Close();
  }
  if (s.ok()) {
    s = SetCurrentFile(env_, dbname_, 1);
  } else {
    env_->RemoveFile(manifest);
  }
  return s;
}

Status DBImpl::Recover() {
  // Manifest reads and WAL replay are attributed to recovery.
  IOContextScope io_ctx(IOContextTag::kRecovery);
  std::unique_lock<std::mutex> l(mu_);

  Status s = env_->CreateDirIfMissing(dbname_);
  if (!s.ok()) return s;

  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (!options_.create_if_missing) {
      return Status::InvalidArgument(dbname_,
                                     "does not exist (create_if_missing=false)");
    }
    s = NewDBFiles();
    if (!s.ok()) return s;
  } else if (options_.error_if_exists) {
    return Status::InvalidArgument(dbname_, "exists (error_if_exists=true)");
  }

  // Structured info LOG: JSONL through the Env, so SimEnv runs produce a
  // deterministic LOG with virtual-clock timestamps. Registered as a
  // listener so flush/compaction/stall events flow in automatically;
  // options.info_log keeps receiving a human-readable tee.
  info_event_log_ = std::make_shared<DbInfoLogger>(env_, options_.info_log);
  {
    Status ls = info_event_log_->Open(InfoLogFileName(dbname_));
    if (!ls.ok()) {
      ELMO_LOG_WARN(options_.info_log.get(), "failed to open info LOG: %s",
                    ls.ToString().c_str());
    }
  }
  options_.listeners.push_back(info_event_log_);
  if (options_.cache_index_and_filter_blocks &&
      options_.block_cache_size == 0) {
    // Honored, but with a zero-capacity cache every metadata access
    // reloads from disk; flag the likely misconfiguration.
    ELMO_LOG_WARN(options_.info_log.get(),
                  "cache_index_and_filter_blocks=true with "
                  "block_cache_size=0: index/filter blocks will be "
                  "re-read on every access");
  }
  {
    json::Object fields;
    fields["dbname"] = dbname_;
    fields["deterministic_env"] = sim_ != nullptr;
    info_event_log_->LogEvent("open", std::move(fields));
    json::Object opt_fields;
    opt_fields["ini"] = OptionsSchema::Instance().ToIniText(options_);
    info_event_log_->LogEvent("options", std::move(opt_fields));
  }

  s = versions_->Recover();
  if (!s.ok()) return s;
  vstall_.SetInitialL0(versions_->NumLevelFiles(0));

  // Replay WALs not yet reflected in the manifest, in file order.
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);
  if (!s.ok()) return s;
  const uint64_t min_log = versions_->LogNumber();
  std::vector<uint64_t> logs;
  for (const auto& f : filenames) {
    uint64_t number;
    FileType type;
    if (ParseFileName(f, &number, &type) && type == FileType::kLogFile &&
        number >= min_log) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());

  SequenceNumber max_sequence = versions_->LastSequence();
  for (uint64_t log_number : logs) {
    s = RecoverLogFile(log_number, &max_sequence);
    if (!s.ok()) return s;
  }
  if (max_sequence > versions_->LastSequence()) {
    versions_->SetLastSequence(max_sequence);
  }

  // Fresh active memtable + WAL.
  mem_ = std::make_shared<MemTable>(internal_comparator_);
  s = SwitchToNewLog();
  if (!s.ok()) return s;

  // Persist the new log number so the replayed logs become obsolete.
  VersionEdit edit;
  edit.SetLogNumber(logfile_number_);
  s = versions_->LogAndApply(&edit);
  if (!s.ok()) return s;

  // Replay runtime-mutable options from the previous incarnation's
  // OPTIONS file (opt-in): a DB retuned live via SetOptions() reopens
  // with the last applied configuration instead of the caller's.
  if (options_.recover_persisted_options) {
    const std::string prev_options = FindLatestOptionsFile(env_, dbname_);
    if (!prev_options.empty()) {
      Options persisted = options_;
      Status ls = LoadOptionsFile(env_, prev_options, &persisted);
      if (ls.ok()) {
        const OptionsSchema& schema = OptionsSchema::Instance();
        std::map<std::string, std::string> replay;
        for (const std::string& name : schema.MutableNames()) {
          const OptionInfo* info = schema.Find(name);
          const std::string saved = info->get(persisted);
          if (info->get(options_) == saved) continue;
          // The sampler can no more be started or stopped at reopen
          // than at runtime; skip a cadence crossing zero instead of
          // failing the whole replay.
          if (name == "stats_sample_interval_ms" &&
              ((options_.stats_sample_interval_ms == 0) !=
               (persisted.stats_sample_interval_ms == 0))) {
            continue;
          }
          replay[name] = saved;
        }
        if (!replay.empty()) {
          Status as = ApplyDynamicOptionsLocked(replay, "recovery");
          if (!as.ok()) {
            ELMO_LOG_WARN(options_.info_log.get(),
                          "failed to replay persisted options: %s",
                          as.ToString().c_str());
          }
        }
      } else {
        ELMO_LOG_WARN(options_.info_log.get(),
                      "failed to load persisted OPTIONS file: %s",
                      ls.ToString().c_str());
      }
    }
  }

  // Persist the active configuration (RocksDB-style OPTIONS file),
  // replacing any previous one.
  {
    std::string old_options = FindLatestOptionsFile(env_, dbname_);
    std::string fname =
        OptionsFileName(dbname_, versions_->NewFileNumber());
    Status os = SaveOptionsFile(env_, fname, options_);
    if (os.ok() && !old_options.empty() && old_options != fname) {
      env_->RemoveFile(old_options);
    }
    if (!os.ok()) {
      ELMO_LOG_WARN(options_.info_log.get(),
                    "failed to persist OPTIONS file: %s",
                    os.ToString().c_str());
    }
  }

  RemoveObsoleteFiles();
  MaybeScheduleCompaction();

  // Under a real env a dedicated thread drives the sampler; under SimEnv
  // ticks piggyback on engine call sites (see MaybeSampleLocked).
  if (sampler_ != nullptr && sim_ == nullptr) {
    sampler_thread_ = std::thread([this] { SamplerThreadLoop(); });
  }
  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number,
                              SequenceNumber* max_sequence) {
  // REQUIRES: mu_ held.
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t, const Status& s) override {
      if (status->ok()) *status = s;
    }
  };

  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;

  Status replay_status;
  LogReporter reporter;
  reporter.status = &replay_status;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true,
                     /*tolerate_torn_tail=*/true);

  std::string scratch;
  Slice record;
  WriteBatch batch;
  std::shared_ptr<MemTable> mem;
  VersionEdit edit;

  while (reader.ReadRecord(&record, &scratch) && replay_status.ok()) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    batch.SetContentsFrom(record);

    if (mem == nullptr) {
      mem = std::make_shared<MemTable>(internal_comparator_);
    }
    s = batch.InsertInto(mem.get());
    if (!s.ok()) return s;

    const SequenceNumber last_seq =
        batch.Sequence() + batch.Count() - 1;
    if (last_seq > *max_sequence) *max_sequence = last_seq;

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      FileMetaData meta;
      s = WriteLevel0Table({mem}, &edit, &meta);
      if (!s.ok()) return s;
      mem.reset();
    }
  }
  if (!replay_status.ok()) return replay_status;

  if (mem != nullptr && mem->NumEntries() > 0) {
    FileMetaData meta;
    s = WriteLevel0Table({mem}, &edit, &meta);
    if (!s.ok()) return s;
  }

  if (!edit.new_files_.empty()) {
    s = versions_->LogAndApply(&edit);
    if (!s.ok()) return s;
    vstall_.SetInitialL0(versions_->NumLevelFiles(0));
  }
  return Status::OK();
}

Status DBImpl::SwitchToNewLog() {
  // REQUIRES: mu_ held.
  uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status s = env_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                   &lfile);
  if (!s.ok()) {
    versions_->ReuseFileNumber(new_log_number);
    return s;
  }
  logfile_ = std::move(lfile);
  logfile_number_ = new_log_number;
  log_ = std::make_unique<log::Writer>(logfile_.get());
  wal_bytes_since_sync_ = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------
// Write path

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  stats_.Add(Ticker::kDeleteCount, 1);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& opts, WriteBatch* updates) {
  if (updates == nullptr || updates->Count() == 0) return Status::OK();

  // WAL appends/syncs (and any memtable-switch IO this write triggers)
  // are attributed to the user write path.
  IOContextScope io_ctx(IOContextTag::kUserWrite);
  // Span edges that meet share one clock read where nothing between
  // them can charge the SimEnv clock (lsm/span.h "Clock reads").
  const uint64_t t_start = env_->NowMicros();
  SpanScope span(env_, SpanKind::kWrite, span_tracer_.get(), t_start);

  std::unique_lock<std::mutex> l(mu_);
  Status s = MakeRoomForWrite(l);
  if (!s.ok()) return s;

  const SequenceNumber seq = versions_->LastSequence() + 1;
  updates->SetSequence(seq);
  const int count = updates->Count();
  const size_t batch_bytes = updates->ApproximateSize();

  // WAL first (durability before visibility). The WAL span's close
  // doubles as the memtable span's open unless a sync ran in between.
  uint64_t t_wal_done = 0;
  bool wal_edge_shared = false;
  if (!opts.disable_wal && !options_.disable_wal) {
    {
      SpanScope wal_span(env_, SpanKind::kWalAppend);
      wal_span.Annotate(SpanTag::kBytes, batch_bytes);
      s = log_->AddRecord(updates->Contents());
      t_wal_done = env_->NowMicros();
      wal_span.Close(t_wal_done);
      wal_edge_shared = true;
    }
    stats_.Add(Ticker::kWalBytes, batch_bytes);
    wal_live_bytes_ += batch_bytes;
    if (!s.ok()) {
      // The write is not acked; classify the failure so later writes
      // stall or fail fast and auto-resume can switch to a fresh WAL.
      RecordBackgroundError(BackgroundErrorSource::kWalAppend, s);
    }
    if (s.ok()) ELMO_KILL_POINT("wal:after_append");
    if (s.ok()) {
      // A sync=true write syncs the WAL; otherwise wal_bytes_per_sync
      // range-syncs it once enough bytes piled up. Either way the span
      // and the histogram share the start and end reads.
      bool range_sync = false;
      if (!opts.sync && options_.wal_bytes_per_sync > 0) {
        wal_bytes_since_sync_ += batch_bytes;
        range_sync = wal_bytes_since_sync_ >= options_.wal_bytes_per_sync;
      }
      if (opts.sync || range_sync) {
        wal_edge_shared = false;
        const uint64_t t_sync = env_->NowMicros();
        SpanScope sync_span(env_, SpanKind::kWalSync, t_sync);
        if (opts.sync) {
          s = logfile_->Sync();
          if (s.ok()) ELMO_KILL_POINT("wal:after_sync");
        } else {
          s = logfile_->RangeSync(options_.strict_bytes_per_sync
                                      ? options_.wal_bytes_per_sync
                                      : wal_bytes_since_sync_);
          wal_bytes_since_sync_ = 0;
        }
        const uint64_t t_synced = env_->NowMicros();
        stats_.Add(Ticker::kWalSyncs, 1);
        stats_.Measure(HistogramType::kWalSyncMicros, t_synced - t_sync);
        sync_span.Close(t_synced);
      }
      if (!s.ok()) {
        RecordBackgroundError(BackgroundErrorSource::kWalSync, s);
      }
    }
  }

  if (s.ok()) {
    SpanScope mem_span(env_, SpanKind::kMemtableInsert,
                       wal_edge_shared ? t_wal_done : env_->NowMicros());
    mem_span.Annotate(SpanTag::kEntries, static_cast<uint64_t>(count));
    s = updates->InsertInto(mem_.get());
  }
  if (s.ok()) {
    versions_->SetLastSequence(seq + count - 1);
    // A fully-acked write proves the WAL healthy; forget any consumed
    // auto-resume budget so the next episode starts fresh.
    error_handler_.NoteBackgroundWorkSuccess();
  }

  stats_.Add(Ticker::kWriteCount, count);
  stats_.Add(Ticker::kBytesWritten, batch_bytes);
  span.Annotate(SpanTag::kBytes, batch_bytes);
  span.Annotate(SpanTag::kEntries, static_cast<uint64_t>(count));
  ChargeWriteCpu(batch_bytes, count);

  const uint64_t t_end = env_->NowMicros();
  stats_.Measure(HistogramType::kWriteMicros, t_end - t_start);

  // The root closes at t_end unless trace or sample work ran since. It
  // closes after the sampler tick, which must not see this op yet.
  uint64_t t_close = t_end;
  if (s.ok() && workload_trace_.active()) {
    TraceBatchHandler handler(&workload_trace_, t_start, CurrentThreadId32());
    updates->Iterate(&handler);
    t_close = env_->NowMicros();
  }
  if (sampler_ != nullptr && sampler_->Due(t_close)) {
    MaybeSampleLocked();
    t_close = env_->NowMicros();
  }
  l.unlock();
  span.Close(t_close);
  return s;
}

void DBImpl::ChargeWriteCpu(size_t batch_bytes, int batch_count) {
  if (sim_ == nullptr) return;
  double wal_cost =
      cost::kWalAppendBaseUs + batch_bytes * cost::kWritePerByteUs;
  double mem_cost = cost::kMemtableInsertUs * batch_count +
                    batch_bytes * cost::kWritePerByteUs;
  double total = wal_cost + mem_cost;
  if (options_.enable_pipelined_write) total *= cost::kPipelinedWriteFactor;
  env_->ChargeCpu(static_cast<uint64_t>(total));
}

void DBImpl::ChargeGetCpu(int files_probed) {
  if (sim_ == nullptr) return;
  env_->ChargeCpu(cost::kGetBaseUs +
                  cost::kGetPerFileProbeUs *
                      static_cast<uint64_t>(files_probed));
}

int DBImpl::ImmCountForStall() {
  if (sim_ != nullptr) {
    vstall_.ProcessUntil(sim_->NowMicros());
    return vstall_.imm_count();
  }
  return static_cast<int>(imm_.size());
}

int DBImpl::L0CountForStall() {
  if (sim_ != nullptr) {
    vstall_.ProcessUntil(sim_->NowMicros());
    return vstall_.l0_count();
  }
  return versions_->NumLevelFiles(0);
}

Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& l) {
  // REQUIRES: l holds mu_.
  bool allow_delay = true;
  int spin_guard = 0;

  while (true) {
    if (!error_handler_.ok()) {
      // An auto-resume retry may be due right now (under SimEnv this
      // writer is the only clock observer).
      MaybeResumeLocked();
    }
    {
      Status es = error_handler_.WriteStatus();
      if (!es.ok()) return es;  // hard/fatal: fail fast, reads still serve
    }
    if (++spin_guard > 10000) {
      return Status::Busy("write path failed to make progress");
    }

    if (!error_handler_.ok()) {
      // Soft error: writes stall while auto-resume retries; escalation
      // to hard (budget exhausted) flips the loop into fail-fast above.
      StopWrites(l, StallReason::kBackgroundError);
      continue;
    }

    const int l0 = L0CountForStall();

    if (allow_delay && l0 >= options_.level0_slowdown_writes_trigger &&
        l0 < options_.level0_stop_writes_trigger) {
      // Slowdown regime: rate-limit this writer once, then proceed.
      stats_.Add(Ticker::kWriteSlowdownCount, 1);
      stats_.Add(Ticker::kStallL0SlowdownCount, 1);
      uint64_t now = env_->NowMicros();
      uint64_t wait = slowdown_limiter_.Request(1024, now);
      if (wait == 0) wait = 1000;  // leveldb's 1ms nudge
      stats_.Add(Ticker::kWriteStallMicros, wait);
      stats_.Measure(HistogramType::kStallMicros, wait);
      UpdateStallCondition(StallCondition::kDelayed,
                           StallReason::kL0FileCount, wait);
      {
        SpanScope stall_span(env_, SpanKind::kStallWait);
        stall_span.Annotate(
            SpanTag::kStallReason,
            static_cast<uint64_t>(StallReason::kL0FileCount));
        if (sim_ != nullptr) {
          sim_->AdvanceTo(now + wait);
        } else {
          l.unlock();
          env_->SleepForMicroseconds(wait);
          l.lock();
        }
      }
      allow_delay = false;
      continue;
    }

    if (mem_->ApproximateMemoryUsage() <= options_.write_buffer_size &&
        (options_.max_total_wal_size == 0 ||
         wal_live_bytes_ <= options_.max_total_wal_size)) {
      UpdateStallCondition(StallCondition::kNormal, StallReason::kNone, 0);
      return Status::OK();  // room available
    }

    Status s;
    if (ImmCountForStall() >= options_.max_write_buffer_number - 1) {
      s = StopWrites(l, StallReason::kMemtableLimit);  // wait for a flush
    } else if (l0 >= options_.level0_stop_writes_trigger) {
      s = StopWrites(l, StallReason::kL0FileCount);
    } else {
      s = SwitchMemTable();
      MaybeScheduleFlush();
    }
    if (!s.ok()) return s;
  }
}

Status DBImpl::StopWrites(std::unique_lock<std::mutex>& l,
                          StallReason reason) {
  // REQUIRES: l holds mu_.
  stats_.Add(Ticker::kWriteStopCount, 1);
  if (reason == StallReason::kMemtableLimit) {
    stats_.Add(Ticker::kStallMemtableStopCount, 1);
  } else if (reason == StallReason::kL0FileCount) {
    stats_.Add(Ticker::kStallL0StopCount, 1);
  }
  UpdateStallCondition(StallCondition::kStopped, reason, 0);
  uint64_t waited = 0;
  SpanScope stall_span(env_, SpanKind::kStallWait);
  stall_span.Annotate(SpanTag::kStallReason, static_cast<uint64_t>(reason));
  if (sim_ != nullptr) {
    // Jump the virtual clock to the event that may lift the stop: the
    // next auto-resume retry or the next background-job completion.
    const uint64_t now = sim_->NowMicros();
    const std::optional<uint64_t> next =
        reason == StallReason::kBackgroundError
            ? error_handler_.next_retry_at_us()
            : vstall_.NextEventAfter(now);
    if (!next.has_value()) {
      // No pending completion — should not happen; avoid spinning.
      return Status::Busy("write stop with no pending background job");
    }
    if (*next > now) {
      waited = *next - now;
      sim_->AdvanceTo(*next);
    }
    // A retry or completion already due is taken up by the caller's
    // next pass: its stall checks apply completions up to now.
  } else {
    // Make sure the job that lifts the stop is queued (both are no-ops
    // during an error episode; the recovery thread signals instead).
    MaybeScheduleFlush();
    MaybeScheduleCompaction();
    const uint64_t t0 = env_->NowMicros();
    bg_work_finished_.wait(l);
    waited = env_->NowMicros() - t0;
  }
  stall_span.Close();
  stats_.Add(Ticker::kWriteStallMicros, waited);
  stats_.Measure(HistogramType::kStallMicros, waited);
  NotifyWriteStop(reason, waited);
  return Status::OK();
}

Status DBImpl::SwitchMemTable() {
  // REQUIRES: mu_ held.
  const uint64_t old_log_number = logfile_number_;
  Status s = SwitchToNewLog();
  if (!s.ok()) return s;
  imm_.push_back(ImmEntry{mem_, old_log_number});
  if (sim_ != nullptr) vstall_.OnMemtableSwitch();
  mem_ = std::make_shared<MemTable>(internal_comparator_);
  wal_live_bytes_ = 0;
  return s;
}

// ---------------------------------------------------------------------
// Background scheduling

void DBImpl::MaybeScheduleFlush() {
  if (shutting_down_.load() || !error_handler_.ok()) return;
  if (imm_.empty()) return;
  const int pending = static_cast<int>(imm_.size());
  if (pending < options_.min_write_buffer_number_to_merge &&
      pending < options_.max_write_buffer_number - 1) {
    return;  // accumulate more before merging
  }
  if (SpaceLowLocked(BackgroundErrorSource::kFlush)) return;
  if (sim_ != nullptr) {
    RunFlushSim();
    return;
  }
  if (active_flushes_ >= 1) return;  // real mode: serialize flushes
  active_flushes_++;
  env_->Schedule([this] { BackgroundFlushCall(); }, JobPriority::kHigh);
}

void DBImpl::MaybeScheduleCompaction() {
  if (shutting_down_.load() || !error_handler_.ok()) return;
  if (manual_compaction_active_) return;
  if (versions_->NeedsCompaction() &&
      SpaceLowLocked(BackgroundErrorSource::kCompaction)) {
    return;
  }
  if (sim_ != nullptr) {
    RunCompactionsSim();
    return;
  }
  if (active_compactions_ >= 1) return;  // real mode: one at a time
  if (!versions_->NeedsCompaction()) return;
  active_compactions_++;
  env_->Schedule([this] { BackgroundCompactionCall(); }, JobPriority::kLow);
}

void DBImpl::BackgroundFlushCall() {
  std::unique_lock<std::mutex> l(mu_);
  if (!shutting_down_.load() && error_handler_.ok()) RunFlushJob();
  active_flushes_--;
  MaybeSampleLocked();
  MaybeScheduleFlush();
  MaybeScheduleCompaction();
  bg_work_finished_.notify_all();
}

void DBImpl::BackgroundCompactionCall() {
  std::unique_lock<std::mutex> l(mu_);
  if (!shutting_down_.load() && error_handler_.ok()) {
    std::unique_ptr<Compaction> c = versions_->PickCompaction();
    if (c != nullptr) RunCompactionJob(std::move(c), AutoCompactionReason());
  }
  active_compactions_--;
  MaybeSampleLocked();
  MaybeScheduleCompaction();
  bg_work_finished_.notify_all();
}

void DBImpl::RunFlushSim() {
  // REQUIRES: mu_ held; sim mode only.
  if (in_sim_background_) return;
  in_sim_background_ = true;
  RunFlushJob();
  in_sim_background_ = false;

  RunCompactionsSim();
  MaybeSampleLocked();
}

void DBImpl::RunCompactionsSim() {
  // REQUIRES: mu_ held; sim mode only.
  if (in_sim_background_) return;
  in_sim_background_ = true;

  while (error_handler_.ok() && !shutting_down_.load() &&
         versions_->NeedsCompaction()) {
    std::unique_ptr<Compaction> c = versions_->PickCompaction();
    if (c == nullptr ||
        !RunCompactionJob(std::move(c), AutoCompactionReason()).ok()) {
      break;
    }
  }

  in_sim_background_ = false;
  MaybeSampleLocked();
}

CompactionReason DBImpl::AutoCompactionReason() const {
  return options_.compaction_style == CompactionStyle::kUniversal
             ? CompactionReason::kUniversal
             : CompactionReason::kLevelScore;
}

void DBImpl::RunFlushJob() {
  // REQUIRES: mu_ held.
  FlushJobInfo info;
  BackgroundErrorSource esrc = BackgroundErrorSource::kFlush;
  const uint64_t start = env_->NowMicros();
  if (sim_ != nullptr) sim_->BeginJobMeter();
  Status s = FlushWork(&info, &esrc);
  const uint64_t duration =
      sim_ != nullptr ? sim_->EndJobMeter() : env_->NowMicros() - start;
  if (!s.ok()) {
    RecordBackgroundError(esrc, s);
    return;
  }
  if (info.imms_merged == 0) return;

  if (sim_ != nullptr) {
    // Book the job on a flush lane: its memtables drain, and its L0
    // file appears, at the lane's virtual completion time.
    const uint64_t file = info.file_number;
    const uint64_t done =
        sim_->ScheduleBackgroundJob(JobPriority::kHigh, start, duration);
    vstall_.OnFlushScheduled(info.imms_merged, file != 0 ? 1 : 0, done);
    if (file != 0) vstall_.SetFileAvailableAt(file, done);
  }
  info.duration_micros = duration;
  stats_.Measure(HistogramType::kFlushMicros, duration);
  NotifyFlushCompleted(info);
  error_handler_.NoteBackgroundWorkSuccess();
}

Status DBImpl::RunCompactionJob(std::unique_ptr<Compaction> c,
                                CompactionReason reason) {
  // REQUIRES: mu_ held.
  std::vector<uint64_t> input_numbers;
  for (int which = 0; which < 2; which++) {
    for (const auto& f : c->inputs(which)) input_numbers.push_back(f->number);
  }
  int l0_consumed = 0, l0_produced = 0;
  std::vector<uint64_t> output_numbers;
  CompactionJobInfo info;
  info.reason = reason;
  BackgroundErrorSource esrc = BackgroundErrorSource::kCompaction;
  const uint64_t start = env_->NowMicros();
  if (sim_ != nullptr) sim_->BeginJobMeter();
  Status s = CompactionWork(std::move(c), &l0_consumed, &l0_produced,
                            &output_numbers, &info, &esrc);
  uint64_t duration =
      sim_ != nullptr ? sim_->EndJobMeter() : env_->NowMicros() - start;
  if (!s.ok()) {
    RecordBackgroundError(esrc, s);
    return s;
  }

  if (sim_ != nullptr) {
    // Subcompaction speedup: parallel workers split the key range, with
    // a coordination overhead.
    const int subs = std::min(options_.max_subcompactions,
                              std::max(1, sim_->hardware().cpu_cores));
    if (subs > 1) {
      duration = static_cast<uint64_t>(duration / subs * 1.15);
    }
    // Book the job on a compaction lane once its inputs exist in virtual
    // time; its outputs appear, and its L0 inputs leave, on completion.
    uint64_t ready = start;
    for (uint64_t in : input_numbers) {
      ready = std::max(ready, vstall_.FileAvailableAt(in));
    }
    const uint64_t done =
        sim_->ScheduleBackgroundJob(JobPriority::kLow, ready, duration);
    vstall_.OnCompactionScheduled(l0_consumed, l0_produced, done);
    for (uint64_t out : output_numbers) {
      vstall_.SetFileAvailableAt(out, done);
    }
    for (uint64_t in : input_numbers) vstall_.ForgetFile(in);
  }
  info.duration_micros = duration;
  stats_.Measure(HistogramType::kCompactionMicros, duration);
  NotifyCompactionCompleted(info);
  error_handler_.NoteBackgroundWorkSuccess();
  return s;
}

// ---------------------------------------------------------------------
// Background-error handling & self-healing

void DBImpl::RecordBackgroundError(BackgroundErrorSource source,
                                   const Status& s) {
  // REQUIRES: mu_ held.
  if (s.ok()) return;
  // An orderly shutdown aborts in-flight jobs; that is not an error.
  if (shutting_down_.load() && s.IsAborted()) return;
  if (!error_handler_.SetBGError(source, s, env_->NowMicros())) return;

  const ErrorHandler::State& st = error_handler_.state();
  switch (st.severity) {
    case ErrorSeverity::kSoft:
      stats_.Add(Ticker::kBackgroundErrorsSoft, 1);
      break;
    case ErrorSeverity::kHard:
      stats_.Add(Ticker::kBackgroundErrorsHard, 1);
      break;
    case ErrorSeverity::kFatal:
      stats_.Add(Ticker::kBackgroundErrorsFatal, 1);
      break;
    case ErrorSeverity::kNone:
      break;
  }
  ELMO_LOG_ERROR(options_.info_log.get(),
                 "background error (%s/%s, severity=%s): %s",
                 BackgroundErrorSourceName(st.source),
                 BackgroundErrorKindName(st.kind),
                 ErrorSeverityName(st.severity), s.ToString().c_str());

  BackgroundErrorInfo info;
  info.source = st.source;
  info.kind = st.kind;
  info.severity = st.severity;
  info.status = st.cause;
  info.retry_count = st.retry_count;
  NotifyBackgroundError(info);

  // Wake writers immediately: soft stalls must re-check the retry
  // schedule, hard/fatal waits must fail fast instead of blocking.
  bg_work_finished_.notify_all();

  if (sim_ == nullptr && st.auto_recoverable) {
    StartRecoveryThreadLocked();
  }
}

Status DBImpl::ResumeImpl(bool manual) {
  // REQUIRES: mu_ held. `manual` resumes ignore the backoff schedule but
  // still consume the same bounded retry budget.
  (void)manual;
  if (error_handler_.ok()) return Status::OK();
  if (error_handler_.severity() == ErrorSeverity::kFatal) {
    return error_handler_.WriteStatus();
  }

  const ErrorHandler::State st = error_handler_.state();
  const bool first_attempt = !st.recovery_began;
  const int attempt = error_handler_.OnResumeAttemptStart();
  stats_.Add(Ticker::kAutoResumeAttempts, 1);

  BackgroundErrorInfo info;
  info.source = st.source;
  info.kind = st.kind;
  info.severity = st.severity;
  info.status = st.cause;
  info.retry_count = attempt;
  if (first_attempt) NotifyErrorRecoveryBegin(info);

  // Repair whatever the failing source left behind before declaring the
  // episode over; flush/compaction inputs are immutable, so for those a
  // clear-and-reschedule is the repair.
  Status repair;
  if (st.kind == BackgroundErrorKind::kNoSpace) {
    if (space_monitor_ != nullptr) {
      space_monitor_->Invalidate();
      if (!space_monitor_->HasHeadroom(env_->NowMicros())) {
        repair = Status::NoSpace("free space still below reserved headroom");
      }
    }
  } else if (st.source == BackgroundErrorSource::kWalAppend ||
             st.source == BackgroundErrorSource::kWalSync) {
    // Every acked record is intact in the old WAL (replay tolerates a
    // torn tail); roll to a fresh log so new writes land on a healthy
    // file. The old WAL stays on disk until its memtable flushes.
    repair = SwitchToNewLog();
  } else if (st.source == BackgroundErrorSource::kManifest) {
    // Force a fresh MANIFEST and eagerly write the full snapshot +
    // CURRENT swap: a successful LogAndApply *is* the verification.
    versions_->ForceNewManifest();
    VersionEdit edit;
    repair = versions_->LogAndApply(&edit);
  }

  if (repair.ok()) {
    error_handler_.OnResumeSucceeded();
    stats_.Add(Ticker::kAutoResumeSuccess, 1);
    ELMO_LOG(options_.info_log.get(),
             "background error recovered (%s/%s) after %d attempt(s)",
             BackgroundErrorSourceName(st.source),
             BackgroundErrorKindName(st.kind), attempt);
    info.status = Status::OK();
    info.retry_count = attempt;
    NotifyErrorRecoveryCompleted(info);
    MaybeScheduleFlush();
    MaybeScheduleCompaction();
    bg_work_finished_.notify_all();
    return Status::OK();
  }

  const bool escalated =
      error_handler_.OnResumeFailed(repair, env_->NowMicros());
  stats_.Add(Ticker::kAutoResumeFailure, 1);
  if (escalated) {
    stats_.Add(Ticker::kBackgroundErrorsHard, 1);
  }
  const ErrorHandler::State& after = error_handler_.state();
  ELMO_LOG_ERROR(options_.info_log.get(),
                 "resume attempt %d failed (%s/%s): %s%s", attempt,
                 BackgroundErrorSourceName(st.source),
                 BackgroundErrorKindName(st.kind),
                 repair.ToString().c_str(),
                 after.auto_recoverable ? "" : "; giving up");
  if (!after.auto_recoverable) {
    // Episode over without recovery: report the terminal failure.
    info.severity = after.severity;
    info.status = repair;
    info.retry_count = attempt;
    NotifyErrorRecoveryCompleted(info);
  }
  if (escalated || !after.auto_recoverable) {
    bg_work_finished_.notify_all();
  }
  return repair;
}

void DBImpl::MaybeResumeLocked() {
  // REQUIRES: mu_ held.
  if (shutting_down_.load()) return;
  if (!error_handler_.ResumeDue(env_->NowMicros())) return;
  ResumeImpl(false);
}

Status DBImpl::Resume() {
  std::lock_guard<std::mutex> l(mu_);
  if (error_handler_.ok()) return Status::OK();
  return ResumeImpl(true);
}

bool DBImpl::SpaceLowLocked(BackgroundErrorSource source) {
  // REQUIRES: mu_ held.
  if (space_monitor_ == nullptr) return false;
  if (space_monitor_->HasHeadroom(env_->NowMicros())) return false;
  RecordBackgroundError(source,
                        Status::NoSpace("free space below reserved headroom"));
  return true;
}

void DBImpl::StartRecoveryThreadLocked() {
  // REQUIRES: mu_ held. Lazily started on the first recoverable error in
  // real-env mode; SimEnv drives recovery inline from foreground calls.
  if (recovery_thread_started_) return;
  recovery_thread_started_ = true;
  recovery_thread_ = std::thread([this] { RecoveryThreadLoop(); });
}

void DBImpl::RecoveryThreadLoop() {
  std::unique_lock<std::mutex> rl(recovery_mu_);
  while (!recovery_stop_) {
    recovery_cv_.wait_for(rl, std::chrono::milliseconds(10),
                          [this] { return recovery_stop_; });
    if (recovery_stop_) break;
    rl.unlock();
    {
      std::lock_guard<std::mutex> l(mu_);
      MaybeResumeLocked();
    }
    rl.lock();
  }
}

void DBImpl::NotifyBackgroundError(const BackgroundErrorInfo& info) {
  for (const auto& l : options_.listeners) l->OnBackgroundError(info);
}

void DBImpl::NotifyErrorRecoveryBegin(const BackgroundErrorInfo& info) {
  for (const auto& l : options_.listeners) l->OnErrorRecoveryBegin(info);
}

void DBImpl::NotifyErrorRecoveryCompleted(const BackgroundErrorInfo& info) {
  for (const auto& l : options_.listeners) l->OnErrorRecoveryCompleted(info);
}

// ---------------------------------------------------------------------
// Flush

Status DBImpl::FlushWork(FlushJobInfo* info, BackgroundErrorSource* esrc) {
  // REQUIRES: mu_ held. On failure *esrc names the failing stage so the
  // error handler can attribute (and repair) it correctly.
  if (esrc != nullptr) *esrc = BackgroundErrorSource::kFlush;
  IOContextScope io_ctx(IOContextTag::kFlush);
  *info = FlushJobInfo{};
  if (imm_.empty()) return Status::OK();

  // Background-job root: under SimEnv this nests inside the foreground
  // write that scheduled it; the collector extracts it as its own tree.
  SpanScope span(env_, SpanKind::kFlush, span_tracer_.get());

  // Capture the memtables to flush (all currently queued).
  std::vector<std::shared_ptr<MemTable>> mems;
  const size_t n_taken = imm_.size();
  mems.reserve(n_taken);
  for (const auto& e : imm_) mems.push_back(e.mem);

  {
    FlushJobInfo begin;
    begin.imms_merged = static_cast<int>(n_taken);
    NotifyFlushBegin(begin);
  }

  VersionEdit edit;
  FileMetaData meta;
  Status s;
  {
    SpanScope build_span(env_, SpanKind::kTableBuild);
    s = WriteLevel0Table(mems, &edit, &meta);
    build_span.Annotate(SpanTag::kBytes, meta.file_size);
  }

  if (s.ok() && shutting_down_.load()) {
    s = Status::Aborted("shutting down during flush");
  }

  if (s.ok()) {
    // The oldest WAL still needed is the one backing the oldest
    // *remaining* immutable memtable (new imms may have queued while the
    // table was built with the lock released), or the active WAL if all
    // are flushed.
    const uint64_t log_floor = (imm_.size() > n_taken)
                                   ? imm_[n_taken].log_number
                                   : logfile_number_;
    edit.SetLogNumber(log_floor);
    ELMO_KILL_POINT("flush:before_manifest_apply");
    SpanScope manifest_span(env_, SpanKind::kManifestApply);
    if (esrc != nullptr) *esrc = BackgroundErrorSource::kManifest;
    s = versions_->LogAndApply(&edit);
    if (s.ok() && esrc != nullptr) *esrc = BackgroundErrorSource::kFlush;
  }

  if (s.ok()) {
    imm_.erase(imm_.begin(), imm_.begin() + n_taken);
    info->imms_merged = static_cast<int>(n_taken);
    info->file_number = meta.file_size > 0 ? meta.number : 0;
    info->output_bytes = meta.file_size;
    span.Annotate(SpanTag::kEntries, static_cast<uint64_t>(n_taken));
    span.Annotate(SpanTag::kBytes, meta.file_size);
    stats_.Add(Ticker::kFlushCount, 1);
    stats_.Add(Ticker::kFlushBytes, meta.file_size);
    stats_.Measure(HistogramType::kFlushOutputBytes, meta.file_size);
    stats_.AddLevelWriteBytes(0, meta.file_size);
    stats_.AddLevelInBytes(0, meta.file_size);
    if (options_.dump_malloc_stats) {
      ELMO_LOG(options_.info_log.get(),
               "flush #%llu: %llu bytes, %s (malloc stats: arena reuse ok)",
               (unsigned long long)meta.number,
               (unsigned long long)meta.file_size,
               versions_->LevelSummary().c_str());
    }
    RemoveObsoleteFiles();
  }
  return s;
}

Status DBImpl::WriteLevel0Table(
    const std::vector<std::shared_ptr<MemTable>>& mems, VersionEdit* edit,
    FileMetaData* meta) {
  // REQUIRES: mu_ held. The table build itself happens with the lock
  // released (the memtables are immutable).
  meta->number = versions_->NewFileNumber();
  meta->file_size = 0;
  pending_outputs_.insert(meta->number);

  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(mems.size());
  for (const auto& m : mems) children.push_back(m->NewIterator());
  auto iter = NewMergingIterator(&internal_comparator_, std::move(children));

  mu_.unlock();
  Status s;
  {
    std::unique_ptr<WritableFile> raw_file;
    s = env_->NewWritableFile(TableFileName(dbname_, meta->number),
                              &raw_file);
    if (s.ok()) {
      std::unique_ptr<WritableFile> file = std::make_unique<SyncingWritableFile>(
          std::move(raw_file), options_.bytes_per_sync,
          options_.strict_bytes_per_sync);

      TableBuildOptions topts;
      topts.comparator = &internal_comparator_;
      std::unique_ptr<BloomFilterPolicy> policy;
      if (options_.bloom_filter_bits_per_key > 0) {
        policy = std::make_unique<BloomFilterPolicy>(
            options_.bloom_filter_bits_per_key);
        topts.filter_policy = policy.get();
        topts.filter_key_transform = [](const Slice& ikey) {
          return ExtractUserKey(ikey);
        };
      }
      topts.block_size = options_.block_size;
      topts.block_restart_interval = options_.block_restart_interval;
      topts.compression = options_.compression;

      TableBuilder builder(topts, file.get());
      iter->SeekToFirst();
      uint64_t entries = 0;
      if (iter->Valid()) {
        meta->smallest.DecodeFrom(iter->key());
        for (; iter->Valid(); iter->Next()) {
          meta->largest.DecodeFrom(iter->key());
          builder.Add(iter->key(), iter->value());
          entries++;
        }
        env_->ChargeCpu(entries * cost::kFlushPerEntryUs);
        if (options_.compression != CompressionType::kNoCompression) {
          env_->ChargeCpu(builder.FileSize() / options_.block_size *
                          cost::kCompressPerBlockUs);
        }
        s = builder.Finish();
        if (s.ok()) {
          meta->file_size = builder.FileSize();
          ELMO_KILL_POINT("flush:before_sst_sync");
          s = file->Sync();
          if (s.ok()) ELMO_KILL_POINT("flush:after_sst_sync");
        }
        if (s.ok()) s = file->Close();
      } else {
        builder.Abandon();
      }
      if (s.ok() && !iter->status().ok()) s = iter->status();
    }
  }
  mu_.lock();

  pending_outputs_.erase(meta->number);
  if (s.ok() && meta->file_size > 0) {
    edit->AddFile(0, meta->number, meta->file_size, meta->smallest,
                  meta->largest);
  } else if (meta->file_size == 0) {
    env_->RemoveFile(TableFileName(dbname_, meta->number));
  }
  return s;
}

// ---------------------------------------------------------------------
// Compaction

SequenceNumber DBImpl::SmallestSnapshot() const {
  if (snapshots_.empty()) return versions_->LastSequence();
  return *std::min_element(snapshots_.begin(), snapshots_.end());
}

Status DBImpl::OpenCompactionOutputFile(std::unique_ptr<WritableFile>* file,
                                        uint64_t* number) {
  // REQUIRES: mu_ held.
  *number = versions_->NewFileNumber();
  pending_outputs_.insert(*number);
  std::unique_ptr<WritableFile> raw;
  Status s = env_->NewWritableFile(TableFileName(dbname_, *number), &raw);
  if (s.ok()) {
    *file = std::make_unique<SyncingWritableFile>(
        std::move(raw), options_.bytes_per_sync,
        options_.strict_bytes_per_sync);
  }
  return s;
}

Status DBImpl::CompactionWork(std::unique_ptr<Compaction> c, int* l0_consumed,
                              int* l0_produced,
                              std::vector<uint64_t>* output_numbers,
                              CompactionJobInfo* info,
                              BackgroundErrorSource* esrc) {
  // REQUIRES: mu_ held. info->reason is preset by the caller. On failure
  // *esrc names the failing stage (compaction proper vs manifest apply).
  if (esrc != nullptr) *esrc = BackgroundErrorSource::kCompaction;
  IOContextScope io_ctx(IOContextTag::kCompaction);
  SpanScope span(env_, SpanKind::kCompaction, span_tracer_.get());
  span.Annotate(SpanTag::kLevel, static_cast<uint64_t>(c->level()));
  span.Annotate(SpanTag::kInputBytes, c->TotalInputBytes());
  *l0_consumed = 0;
  *l0_produced = 0;

  if (c->level() == 0) *l0_consumed = c->num_input_files(0);

  info->level = c->level();
  info->output_level = c->output_level();
  info->num_input_files = c->num_input_files(0) + c->num_input_files(1);
  info->input_bytes = c->TotalInputBytes();
  NotifyCompactionBegin(*info);

  // Trivial move: retarget the file without rewriting it.
  if (c->IsTrivialMove()) {
    const FileRef& f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->output_level(), f->number, f->file_size,
                       f->smallest, f->largest);
    Status s;
    {
      SpanScope manifest_span(env_, SpanKind::kManifestApply);
      if (esrc != nullptr) *esrc = BackgroundErrorSource::kManifest;
      s = versions_->LogAndApply(c->edit());
      if (s.ok() && esrc != nullptr) {
        *esrc = BackgroundErrorSource::kCompaction;
      }
    }
    stats_.Add(Ticker::kTrivialMoveCount, 1);
    // The file changed levels without a rewrite: bytes arrive at the
    // output level for free (no write amplification charged).
    stats_.AddLevelInBytes(c->output_level(), f->file_size);
    info->trivial_move = true;
    info->num_output_files = 1;
    info->output_bytes = f->file_size;
    if (c->output_level() == 0) *l0_produced = 1;
    output_numbers->push_back(f->number);
    RemoveObsoleteFiles();
    return s;
  }

  const SequenceNumber smallest_snapshot = SmallestSnapshot();

  // Build the merged input iterator.
  TableIterOptions in_opts;
  in_opts.fill_cache = false;
  in_opts.readahead_bytes = options_.compaction_readahead_size;
  std::vector<std::unique_ptr<Iterator>> children;
  uint64_t input_bytes = c->TotalInputBytes();
  for (int which = 0; which < 2; which++) {
    in_opts.level = which == 0 ? c->level() : c->output_level();
    for (const auto& f : c->inputs(which)) {
      children.push_back(
          table_cache_->NewIterator(f->number, f->file_size, in_opts));
    }
  }
  auto input =
      NewMergingIterator(&internal_comparator_, std::move(children));

  std::vector<CompactionOutput> outputs;
  std::unique_ptr<WritableFile> out_file;
  std::unique_ptr<TableBuilder> builder;
  uint64_t current_output_number = 0;

  TableBuildOptions topts;
  topts.comparator = &internal_comparator_;
  std::unique_ptr<BloomFilterPolicy> policy;
  if (options_.bloom_filter_bits_per_key > 0) {
    policy = std::make_unique<BloomFilterPolicy>(
        options_.bloom_filter_bits_per_key);
    topts.filter_policy = policy.get();
    topts.filter_key_transform = [](const Slice& ikey) {
      return ExtractUserKey(ikey);
    };
  }
  topts.block_size = options_.block_size;
  topts.block_restart_interval = options_.block_restart_interval;
  topts.compression = options_.compression;

  const Comparator* ucmp = internal_comparator_.user_comparator();

  mu_.unlock();

  Status s;
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  uint64_t entries = 0;
  InternalKey out_smallest, out_largest;

  auto finish_output = [&]() {
    if (builder == nullptr) return Status::OK();
    Status fs = builder->Finish();
    uint64_t size = builder->FileSize();
    ELMO_KILL_POINT("compaction:before_output_sync");
    if (fs.ok()) fs = out_file->Sync();
    if (fs.ok()) fs = out_file->Close();
    builder.reset();
    out_file.reset();
    if (fs.ok()) {
      outputs.push_back(CompactionOutput{current_output_number, size,
                                         out_smallest, out_largest});
    }
    return fs;
  };

  for (input->SeekToFirst(); s.ok() && input->Valid(); input->Next()) {
    Slice key = input->key();
    entries++;

    bool drop = false;
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      // Pass corrupted keys through so they surface on read.
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key ||
          ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      if (last_sequence_for_key <= smallest_snapshot) {
        // Shadowed by a newer entry for the same user key that is
        // itself visible to every snapshot.
        drop = true;
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= smallest_snapshot &&
                 c->IsBaseLevelForKey(ikey.user_key)) {
        // Deletion marker with nothing underneath it to hide.
        drop = true;
      }
      last_sequence_for_key = ikey.sequence;
    }

    if (!drop) {
      if (builder == nullptr) {
        mu_.lock();
        s = OpenCompactionOutputFile(&out_file, &current_output_number);
        mu_.unlock();
        if (!s.ok()) break;
        builder = std::make_unique<TableBuilder>(topts, out_file.get());
        out_smallest.DecodeFrom(key);
      }
      out_largest.DecodeFrom(key);
      builder->Add(key, input->value());

      if (builder->FileSize() >= c->MaxOutputFileSize()) {
        s = finish_output();
        if (!s.ok()) break;
      }
    }
  }

  if (s.ok()) s = input->status();
  if (s.ok()) s = finish_output();
  env_->ChargeCpu(entries * cost::kCompactionPerEntryUs);
  input.reset();

  mu_.lock();

  if (s.ok() && shutting_down_.load()) {
    s = Status::Aborted("shutting down during compaction");
  }

  if (s.ok()) {
    c->AddInputDeletions(c->edit());
    uint64_t output_bytes = 0;
    for (const auto& out : outputs) {
      c->edit()->AddFile(c->output_level(), out.number, out.file_size,
                         out.smallest, out.largest);
      output_numbers->push_back(out.number);
      output_bytes += out.file_size;
    }
    {
      SpanScope manifest_span(env_, SpanKind::kManifestApply);
      if (esrc != nullptr) *esrc = BackgroundErrorSource::kManifest;
      s = versions_->LogAndApply(c->edit());
      if (s.ok() && esrc != nullptr) {
        *esrc = BackgroundErrorSource::kCompaction;
      }
    }
    if (s.ok()) ELMO_KILL_POINT("compaction:after_apply");
    if (s.ok()) {
      span.Annotate(SpanTag::kBytes, output_bytes);
      span.Annotate(SpanTag::kEntries, entries);
      stats_.Add(Ticker::kCompactionCount, 1);
      stats_.Add(Ticker::kCompactionBytesRead, input_bytes);
      stats_.Add(Ticker::kCompactionBytesWritten, output_bytes);
      stats_.Measure(HistogramType::kCompactionInputBytes, input_bytes);
      stats_.Measure(HistogramType::kCompactionOutputBytes, output_bytes);
      // Per-level data flow: bytes leave both input levels, land at the
      // output level; upper-level input is the level's inflow (the
      // write-amplification denominator).
      uint64_t upper_bytes = 0;
      for (const auto& f : c->inputs(0)) upper_bytes += f->file_size;
      stats_.AddLevelReadBytes(c->level(), upper_bytes);
      stats_.AddLevelReadBytes(c->output_level(),
                               input_bytes - upper_bytes);
      stats_.AddLevelWriteBytes(c->output_level(), output_bytes);
      stats_.AddLevelInBytes(c->output_level(), upper_bytes);
      stats_.AddLevelCompaction(c->output_level());
      info->num_output_files = static_cast<int>(outputs.size());
      info->output_bytes = output_bytes;
      if (c->output_level() == 0) {
        *l0_produced = static_cast<int>(outputs.size());
      }
    }
  }

  for (const auto& out : outputs) pending_outputs_.erase(out.number);
  if (!s.ok()) {
    // Remove any orphaned outputs.
    for (const auto& out : outputs) {
      env_->RemoveFile(TableFileName(dbname_, out.number));
    }
  }
  RemoveObsoleteFiles();
  return s;
}

void DBImpl::RemoveObsoleteFiles() {
  // REQUIRES: mu_ held. Skipped while an error is active: the live-file
  // view may be stale relative to a half-applied manifest edit.
  if (!error_handler_.ok()) return;

  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  if (!env_->GetChildren(dbname_, &filenames).ok()) return;

  uint64_t number;
  FileType type;
  for (const auto& filename : filenames) {
    if (!ParseFileName(filename, &number, &type)) continue;
    bool keep = true;
    switch (type) {
      case FileType::kLogFile:
        keep = (number >= versions_->LogNumber()) ||
               (number == logfile_number_);
        break;
      case FileType::kDescriptorFile:
        keep = (number >= versions_->ManifestFileNumber());
        break;
      case FileType::kTableFile:
        keep = (live.find(number) != live.end());
        break;
      case FileType::kTempFile:
        keep = (live.find(number) != live.end());
        break;
      case FileType::kCurrentFile:
      case FileType::kLockFile:
      case FileType::kInfoLogFile:
        keep = true;
        break;
    }
    if (!keep) {
      if (type == FileType::kTableFile) {
        table_cache_->Evict(number);
      }
      env_->RemoveFile(dbname_ + "/" + filename);
    }
  }
}

// ---------------------------------------------------------------------
// Read path

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  value->clear();
  IOContextScope io_ctx(IOContextTag::kUserGet);
  // Span edges share clock reads as in Write.
  const uint64_t t_start = env_->NowMicros();
  SpanScope span(env_, SpanKind::kGet, span_tracer_.get(), t_start);
  std::shared_ptr<MemTable> mem;
  std::vector<std::shared_ptr<MemTable>> imms;
  std::shared_ptr<Version> version;
  SequenceNumber snapshot;
  {
    std::lock_guard<std::mutex> l(mu_);
    // Reads keep serving in every degraded state; they also piggyback a
    // due auto-resume attempt (under SimEnv the foreground is the only
    // clock observer).
    if (!error_handler_.ok()) MaybeResumeLocked();
    if (options.snapshot != nullptr) {
      snapshot =
          static_cast<const SnapshotImpl*>(options.snapshot)->sequence;
    } else {
      snapshot = versions_->LastSequence();
    }
    mem = mem_;
    imms.reserve(imm_.size());
    // Newest immutable first.
    for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
      imms.push_back(it->mem);
    }
    version = versions_->current();
  }

  LookupKey lkey(key, snapshot);
  Status s;
  int files_probed = 0;
  bool done = false;

  uint64_t t_mem_done = 0;  // memtable-probe close = SST-probe open
  {
    SpanScope mem_span(env_, SpanKind::kMemtableProbe);
    done = mem->Get(lkey, value, &s);
    if (!done) {
      for (const auto& m : imms) {
        if (m->Get(lkey, value, &s)) {
          done = true;
          break;
        }
      }
    }
    mem_span.Annotate(SpanTag::kHit, done ? 1 : 0);
    t_mem_done = env_->NowMicros();
    mem_span.Close(t_mem_done);
  }
  if (!done) {
    SpanScope sst_span(env_, SpanKind::kSstProbe, t_mem_done);
    // This thread's own lookups: other threads' Gets and compactions
    // share the cache, so its global counters would overcount.
    const TableCacheCounts cache_before = ThreadTableCacheCounts();
    Version::GetStats vstats;
    s = version->Get(options, lkey, value, &vstats);
    files_probed = vstats.files_probed;
    const TableCacheCounts cache_after = ThreadTableCacheCounts();
    sst_span.Annotate(SpanTag::kFilesProbed,
                      static_cast<uint64_t>(files_probed));
    if (vstats.hit_level >= 0) {
      sst_span.Annotate(SpanTag::kLevel,
                        static_cast<uint64_t>(vstats.hit_level));
    }
    sst_span.Annotate(SpanTag::kCacheHit,
                      cache_after.hits - cache_before.hits);
    sst_span.Annotate(SpanTag::kCacheMiss,
                      cache_after.misses - cache_before.misses);
    sst_span.Annotate(SpanTag::kHit, s.ok() ? 1 : 0);
  }

  ChargeGetCpu(files_probed);
  stats_.Add(s.ok() ? Ticker::kGetHit : Ticker::kGetMiss, 1);
  span.Annotate(SpanTag::kHit, s.ok() ? 1 : 0);
  if (s.ok()) {
    stats_.Add(Ticker::kBytesRead, value->size());
    span.Annotate(SpanTag::kBytes, value->size());
  }

  const uint64_t t_end = env_->NowMicros();
  stats_.Measure(HistogramType::kGetMicros, t_end - t_start);

  // Misses are traced too: a replayed read of a since-deleted key should
  // miss again. As in Write, the root closes at t_end unless trace or
  // sample work ran since.
  uint64_t t_close = t_end;
  if (workload_trace_.active()) {
    workload_trace_.AddRecord(TraceOp::kGet, t_start, CurrentThreadId32(), key,
                              0);
    t_close = env_->NowMicros();
  }
  if (sampler_ != nullptr && sampler_->Due(t_close)) {
    {
      std::lock_guard<std::mutex> sample_lock(mu_);
      MaybeSampleLocked();
    }
    t_close = env_->NowMicros();
  }
  span.Close(t_close);
  return s;
}

std::unique_ptr<Iterator> DBImpl::NewInternalIterator(
    const ReadOptions& options, SequenceNumber* latest_seq) {
  std::lock_guard<std::mutex> l(mu_);
  // Scan-heavy phases must tick the sampler too: under SimEnv no thread
  // can observe virtual time, so every frequent call site piggybacks.
  MaybeSampleLocked();
  *latest_seq = versions_->LastSequence();

  std::vector<std::unique_ptr<Iterator>> children;
  std::vector<std::shared_ptr<void>> refs;

  children.push_back(mem_->NewIterator());
  refs.push_back(mem_);
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    children.push_back(it->mem->NewIterator());
    refs.push_back(it->mem);
  }
  auto version = versions_->current();
  TableIterOptions iter_opts;
  iter_opts.fill_cache = options.fill_cache;
  version->AddIterators(iter_opts, &children);
  refs.push_back(version);

  auto merged =
      NewMergingIterator(&internal_comparator_, std::move(children));
  return std::make_unique<RefHolderIterator>(std::move(merged),
                                             std::move(refs));
}

std::unique_ptr<Iterator> DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber latest;
  auto internal = NewInternalIterator(options, &latest);
  SequenceNumber seq =
      options.snapshot != nullptr
          ? static_cast<const SnapshotImpl*>(options.snapshot)->sequence
          : latest;
  stats_.Add(Ticker::kSeekCount, 1);
  return NewDBIterator(internal_comparator_.user_comparator(),
                       std::move(internal), seq, env_, span_tracer_.get());
}

const Snapshot* DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> l(mu_);
  auto* snap = new SnapshotImpl(versions_->LastSequence());
  snapshots_.push_back(snap->sequence);
  return snap;
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  const auto* impl = static_cast<const SnapshotImpl*>(snapshot);
  std::lock_guard<std::mutex> l(mu_);
  auto it =
      std::find(snapshots_.begin(), snapshots_.end(), impl->sequence);
  if (it != snapshots_.end()) snapshots_.erase(it);
  delete impl;
}

// ---------------------------------------------------------------------
// Observability

void DBImpl::NotifyFlushBegin(const FlushJobInfo& info) {
  for (const auto& l : options_.listeners) l->OnFlushBegin(info);
}

void DBImpl::NotifyFlushCompleted(const FlushJobInfo& info) {
  for (const auto& l : options_.listeners) l->OnFlushCompleted(info);
}

void DBImpl::NotifyCompactionBegin(const CompactionJobInfo& info) {
  for (const auto& l : options_.listeners) l->OnCompactionBegin(info);
}

void DBImpl::NotifyCompactionCompleted(const CompactionJobInfo& info) {
  for (const auto& l : options_.listeners) l->OnCompactionCompleted(info);
}

void DBImpl::UpdateStallCondition(StallCondition next, StallReason reason,
                                  uint64_t wait_micros) {
  // REQUIRES: mu_ held.
  if (next == stall_condition_) return;
  StallInfo info;
  info.previous = stall_condition_;
  info.current = next;
  info.reason = reason;
  info.wait_micros = wait_micros;
  stall_condition_ = next;
  for (const auto& l : options_.listeners) l->OnStallConditionChanged(info);
}

void DBImpl::NotifyWriteStop(StallReason reason, uint64_t wait_micros) {
  StallInfo info;
  info.previous = StallCondition::kStopped;
  info.current = StallCondition::kStopped;
  info.reason = reason;
  info.wait_micros = wait_micros;
  for (const auto& l : options_.listeners) l->OnWriteStop(info);
}

std::string DBImpl::LevelStatsString() const {
  // REQUIRES: mu_ held.
  auto version = versions_->current();
  std::string out =
      "Level  Files  Size(MB)  Score  In(MB)  Read(MB)  Write(MB)  "
      "W-Amp  Cmp\n";
  char buf[160];
  const double mb = 1048576.0;
  int total_files = 0;
  uint64_t total_size = 0, total_in = 0, total_read = 0, total_write = 0,
           total_cmp = 0;
  for (int level = 0; level < version->num_levels(); level++) {
    const int files = version->NumFiles(level);
    const uint64_t size = version->NumBytes(level);
    const uint64_t in = stats_.LevelInBytes(level);
    const uint64_t read = stats_.LevelReadBytes(level);
    const uint64_t write = stats_.LevelWriteBytes(level);
    const uint64_t cmp = stats_.LevelCompactions(level);
    const double wamp =
        in == 0 ? 0.0 : static_cast<double>(write) / static_cast<double>(in);
    snprintf(buf, sizeof(buf),
             "  L%-3d  %5d  %8.1f  %5.2f  %6.1f  %8.1f  %9.1f  %5.1f  %3llu\n",
             level, files, size / mb, version->LevelScore(level), in / mb,
             read / mb, write / mb, wamp, (unsigned long long)cmp);
    out += buf;
    total_files += files;
    total_size += size;
    total_in += in;
    total_read += read;
    total_write += write;
    total_cmp += cmp;
  }
  const uint64_t user_bytes = stats_.Get(Ticker::kBytesWritten);
  const double total_wamp =
      user_bytes == 0
          ? 0.0
          : static_cast<double>(total_write) / static_cast<double>(user_bytes);
  snprintf(buf, sizeof(buf),
           "  Sum   %5d  %8.1f   -     %6.1f  %8.1f  %9.1f  %5.1f  %3llu\n",
           total_files, total_size / mb, total_in / mb, total_read / mb,
           total_write / mb, total_wamp, (unsigned long long)total_cmp);
  out += buf;
  return out;
}

void DBImpl::SyncCacheStatsLocked() {
  // REQUIRES: mu_ held. The cache counts internally; fold the delta
  // since the last sync into the registry tickers.
  const Cache::Stats cur = block_cache_->GetStats();
  stats_.Add(Ticker::kBlockCacheHit, cur.hits - last_cache_stats_.hits);
  stats_.Add(Ticker::kBlockCacheMiss, cur.misses - last_cache_stats_.misses);
  last_cache_stats_ = cur;
}

void DBImpl::SyncLogStatsLocked() {
  // REQUIRES: mu_ held. Same delta-fold pattern as the cache stats:
  // the loggers count internally, the registry gets the increments.
  uint64_t dropped = 0;
  if (auto* buffered = dynamic_cast<BufferLogger*>(options_.info_log.get())) {
    dropped = buffered->dropped_lines();
  }
  const uint64_t failures =
      info_event_log_ != nullptr ? info_event_log_->write_failures() : 0;
  if (dropped > last_info_log_dropped_) {
    stats_.Add(Ticker::kInfoLogDroppedLines, dropped - last_info_log_dropped_);
    last_info_log_dropped_ = dropped;
  }
  if (failures > last_info_log_failures_) {
    stats_.Add(Ticker::kInfoLogWriteFailures,
               failures - last_info_log_failures_);
    last_info_log_failures_ = failures;
  }
}

std::string DBImpl::RenderPrometheusLocked() {
  // REQUIRES: mu_ held.
  SyncCacheStatsLocked();
  SyncLogStatsLocked();
  monitor::PrometheusInputs in;
  in.stats = stats_.GetSnapshot();
  const EngineGauges g = GatherGaugesLocked();
  in.num_levels = std::min(g.num_levels, DbStats::kMaxLevels);
  for (int l = 0; l < DbStats::kMaxLevels && l < in.num_levels; l++) {
    in.level_files[l] = g.level_files[l];
    in.level_read_bytes[l] = stats_.LevelReadBytes(l);
    in.level_write_bytes[l] = stats_.LevelWriteBytes(l);
    in.level_compactions[l] = stats_.LevelCompactions(l);
  }
  in.memtable_bytes = g.memtable_bytes;
  in.imm_count = g.imm_count;
  in.pending_compaction_bytes = g.pending_compaction_bytes;
  in.block_cache_usage = g.block_cache_usage;
  in.block_cache_capacity = block_cache_->Capacity();
  if (sampler_ != nullptr) {
    in.sampler_samples = sampler_->NumSamples();
    in.sampler_ring_dropped = sampler_->DroppedSamples();
    in.sampler_late_ticks = sampler_->LateTicks();
    in.sampler_interval_us = sampler_->interval_us();
  }
  if (health_ != nullptr) {
    const monitor::HealthReport r = health_->Report();
    in.health_status = static_cast<int>(r.status);
    if (!r.diagnoses.empty()) {
      in.health_top_rule = r.diagnoses.front().rule;
      in.health_top_severity = r.diagnoses.front().severity;
    }
  }
  in.bg_error_severity = static_cast<int>(error_handler_.severity());
  if (!error_handler_.ok()) {
    const ErrorHandler::State& est = error_handler_.state();
    in.bg_error_source = BackgroundErrorSourceName(est.source);
    in.bg_error_kind = BackgroundErrorKindName(est.kind);
    in.bg_error_retry_count = est.retry_count;
  }
  in.ts_us = env_->NowMicros();
  return monitor::RenderPrometheus(in);
}

void DBImpl::ExportMetricsLocked() {
  // REQUIRES: mu_ held.
  if (options_.metrics_export_path.empty()) return;
  const std::string text = RenderPrometheusLocked();
  raw_env_->WriteStringToFile(Slice(text), options_.metrics_export_path,
                              /*sync=*/false);
}

EngineGauges DBImpl::GatherGaugesLocked() {
  // REQUIRES: mu_ held.
  EngineGauges g;
  g.memtable_bytes = mem_ != nullptr ? mem_->ApproximateMemoryUsage() : 0;
  for (const auto& e : imm_) {
    g.memtable_bytes += e.mem->ApproximateMemoryUsage();
  }
  g.imm_count = ImmCountForStall();
  g.pending_compaction_bytes = versions_->EstimatePendingCompactionBytes();
  auto version = versions_->current();
  g.num_levels = std::min(version->num_levels(), DbStats::kMaxLevels);
  for (int level = 0; level < g.num_levels; level++) {
    g.level_files[level] = version->NumFiles(level);
  }
  // L0 stalls are decided on the virtual count under sim; report the
  // same number the stall logic sees.
  if (g.num_levels > 0) g.level_files[0] = L0CountForStall();
  g.block_cache_usage = block_cache_->TotalCharge();
  g.bg_error_severity = static_cast<int>(error_handler_.severity());

  const SpanAggregate::Snapshot spans = GlobalSpanAggregate()->GetSnapshot();
  auto since_open = [this, &spans](SpanKind k) {
    return spans.Get(k).total_us - span_baseline_.Get(k).total_us;
  };
  g.span_stall_us = since_open(SpanKind::kStallWait);
  g.span_wal_sync_us = since_open(SpanKind::kWalSync);
  g.span_sst_probe_us = since_open(SpanKind::kSstProbe);
  g.span_memtable_us = since_open(SpanKind::kMemtableInsert) +
                       since_open(SpanKind::kMemtableProbe);
  return g;
}

void DBImpl::MaybeSampleLocked() {
  // REQUIRES: mu_ held.
  if (sampler_ == nullptr) return;
  const uint64_t now = env_->NowMicros();
  if (!sampler_->Due(now)) return;

  // Tickers must be current before the sampler computes its delta.
  SyncCacheStatsLocked();
  SyncLogStatsLocked();

  if (!sampler_->Tick(now, GatherGaugesLocked())) return;
  const IntervalSample s = sampler_->Latest();

  if (info_event_log_ != nullptr) {
    // The full sample goes to the LOG so offline replay (elmo_dump
    // health, elmo_top) sees exactly what the live monitor saw. The
    // sample's own timestamp is stripped: LogEvent stamps the line with
    // the same engine clock.
    json::Object fields = SampleToJsonObject(s);
    fields.erase("ts_us");
    info_event_log_->LogEvent("sampler_tick", std::move(fields));
  }

  if (health_ != nullptr) {
    const std::vector<monitor::AnomalyEvent> events = health_->Observe(s);
    if (info_event_log_ != nullptr) {
      for (const monitor::AnomalyEvent& e : events) {
        json::Object fields = e.ToJson();
        fields.erase("ts_us");
        info_event_log_->LogEvent("anomaly", std::move(fields));
      }
      const monitor::HealthReport r = health_->Report();
      if (r.status != last_health_status_) {
        json::Object fields;
        fields["from"] = monitor::HealthStatusName(last_health_status_);
        fields["to"] = monitor::HealthStatusName(r.status);
        if (!r.diagnoses.empty()) {
          fields["top_rule"] = r.diagnoses.front().rule;
          fields["top_severity"] = r.diagnoses.front().severity;
        }
        info_event_log_->LogEvent("health", std::move(fields));
        last_health_status_ = r.status;
      }
    }
  }

  ExportMetricsLocked();
}

void DBImpl::SamplerThreadLoop() {
  std::unique_lock<std::mutex> sl(sampler_mu_);
  while (!sampler_stop_) {
    // Cadence is re-read every pass so a live SetOptions() retime takes
    // effect at the next wakeup (the retime also signals sampler_cv_).
    const auto interval = std::chrono::milliseconds(
        sampler_interval_ms_.load(std::memory_order_relaxed));
    sampler_cv_.wait_for(sl, interval, [this] { return sampler_stop_; });
    if (sampler_stop_) break;
    sl.unlock();
    {
      std::lock_guard<std::mutex> l(mu_);
      MaybeSampleLocked();
    }
    sl.lock();
  }
}

Status DBImpl::StartTrace(const std::string& path) {
  return LogTraceEvent(workload_trace_.Start(path, env_->NowMicros()),
                       "trace_start", {{"path", path}});
}

Status DBImpl::EndTrace() { return StopTrace(&workload_trace_, "trace_end"); }

Status DBImpl::StartIOTrace(const std::string& path) {
  return LogTraceEvent(io_env_->trace()->Start(path, env_->NowMicros()),
                       "io_trace_start", {{"path", path}});
}

Status DBImpl::EndIOTrace() {
  return StopTrace(io_env_->trace(), "io_trace_end");
}

Status DBImpl::StartBlockCacheTrace(const std::string& path) {
  return LogTraceEvent(block_cache_tracer_->Start(path, env_->NowMicros()),
                       "block_cache_trace_start", {{"path", path}});
}

Status DBImpl::EndBlockCacheTrace() {
  return StopTrace(block_cache_tracer_.get(), "block_cache_trace_end");
}

Status DBImpl::StartSpanTrace(const std::string& path,
                              const SpanTraceOptions& options) {
  return LogTraceEvent(
      span_tracer_->Start(path, options, env_->NowMicros()),
      "span_trace_start",
      {{"path", path},
       {"slow_op_threshold_us",
        static_cast<int64_t>(options.slow_op_threshold_us)},
       {"sample_every", static_cast<int64_t>(options.sample_every)}});
}

Status DBImpl::EndSpanTrace() {
  return StopTrace(span_tracer_.get(), "span_trace_end");
}

Status DBImpl::StopTrace(RecordTrace* trace, const char* event) {
  uint64_t records = 0;
  Status s = trace->Stop(&records);
  return LogTraceEvent(s, event,
                       {{"records", static_cast<int64_t>(records)}});
}

Status DBImpl::LogTraceEvent(const Status& s, const char* event,
                             json::Object fields) {
  if (s.ok() && info_event_log_ != nullptr) {
    info_event_log_->LogEvent(event, std::move(fields));
  }
  return s;
}

// ---------------------------------------------------------------------
// Admin

TimeSeries DBImpl::GetTimeSeries() {
  std::lock_guard<std::mutex> l(mu_);
  MaybeSampleLocked();
  return sampler_ != nullptr ? sampler_->Series() : TimeSeries{};
}

std::optional<monitor::HealthReport> DBImpl::GetHealth() {
  std::lock_guard<std::mutex> l(mu_);
  MaybeSampleLocked();
  if (health_ == nullptr) return std::nullopt;
  return health_->Report();
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  std::string prop = property.ToString();
  // The telemetry properties render the typed reads, which take mu_
  // themselves.
  if (prop == "elmo.timeseries") {
    *value = TimeSeriesToJson(GetTimeSeries());
    return true;
  }
  if (prop == "elmo.health") {
    const std::optional<monitor::HealthReport> health = GetHealth();
    *value = health ? json::Value(health->ToJson()).Dump()
                    : "{\"status\": \"disabled\"}";
    return true;
  }
  std::lock_guard<std::mutex> l(mu_);

  if (prop == "elmo.stats") {
    SyncCacheStatsLocked();  // tickers current as of this dump
    SyncLogStatsLocked();
    *value = stats_.ToString();
    *value += versions_->LevelSummary() + "\n";
    *value += LevelStatsString();
    auto cache_stats = block_cache_->GetStats();
    char buf[256];
    snprintf(buf, sizeof(buf),
             "block cache: usage %zu / %zu, hits %llu, misses %llu\n",
             block_cache_->TotalCharge(), block_cache_->Capacity(),
             (unsigned long long)cache_stats.hits,
             (unsigned long long)cache_stats.misses);
    *value += buf;
    if (sampler_ != nullptr) {
      snprintf(buf, sizeof(buf),
               "sampler: samples %zu, ring dropped %llu, late ticks %llu\n",
               sampler_->NumSamples(),
               (unsigned long long)sampler_->DroppedSamples(),
               (unsigned long long)sampler_->LateTicks());
      *value += buf;
    }
    return true;
  }
  if (prop == "elmo.levelstats") {
    *value = LevelStatsString();
    return true;
  }
  if (prop == "elmo.levelsummary") {
    *value = versions_->LevelSummary();
    return true;
  }
  if (prop == "elmo.sstables") {
    // One line per file: "L<level> #<number> <size> [smallest..largest]".
    auto version = versions_->current();
    for (int level = 0; level < version->num_levels(); level++) {
      for (const auto& f : version->files(level)) {
        char buf[128];
        snprintf(buf, sizeof(buf), "L%d #%llu %llu [", level,
                 (unsigned long long)f->number,
                 (unsigned long long)f->file_size);
        *value += buf;
        *value += f->smallest.user_key().ToString() + "..";
        *value += f->largest.user_key().ToString() + "]\n";
      }
    }
    return true;
  }
  if (StartsWith(prop, "elmo.num-files-at-level")) {
    auto level = ParseInt64(prop.substr(strlen("elmo.num-files-at-level")));
    if (!level.has_value() || *level < 0 ||
        *level >= options_.num_levels) {
      return false;
    }
    *value = std::to_string(
        versions_->NumLevelFiles(static_cast<int>(*level)));
    return true;
  }
  if (prop == "elmo.estimate-pending-compaction-bytes") {
    *value = std::to_string(versions_->EstimatePendingCompactionBytes());
    return true;
  }
  if (prop == "elmo.block-cache-usage") {
    *value = std::to_string(block_cache_->TotalCharge());
    return true;
  }
  if (prop == "elmo.block-cache-hit-rate") {
    auto cs = block_cache_->GetStats();
    double total = static_cast<double>(cs.hits + cs.misses);
    char buf[32];
    snprintf(buf, sizeof(buf), "%.4f",
             total == 0 ? 0.0 : cs.hits / total);
    *value = buf;
    return true;
  }
  if (prop == "elmo.options") {
    *value = OptionsSchema::Instance().ToIniText(options_);
    return true;
  }
  if (prop == "elmo.perf") {
    *value = GlobalSpanAggregate()->ToString();
    return true;
  }
  if (prop == "elmo.prometheus") {
    MaybeSampleLocked();
    *value = RenderPrometheusLocked();
    return true;
  }
  if (prop == "elmo.options_changes") {
    json::Object doc;
    doc["count"] =
        static_cast<int64_t>(stats_.Get(Ticker::kOptionsChanges));
    json::Array changes;
    for (const auto& rec : options_changes_) {
      json::Object c;
      c["ts_us"] = static_cast<int64_t>(rec.ts_us);
      c["source"] = rec.source;
      json::Array deltas;
      for (const auto& d : rec.deltas) {
        json::Object dj;
        dj["name"] = d.name;
        dj["from"] = d.from;
        dj["to"] = d.to;
        deltas.push_back(std::move(dj));
      }
      c["deltas"] = std::move(deltas);
      changes.push_back(std::move(c));
    }
    doc["changes"] = std::move(changes);
    *value = json::Value(std::move(doc)).Dump();
    return true;
  }
  if (prop == "elmo.bg_error") {
    const ErrorHandler::State& est = error_handler_.state();
    json::Object doc;
    doc["severity"] = ErrorSeverityName(est.severity);
    if (!error_handler_.ok()) {
      doc["source"] = BackgroundErrorSourceName(est.source);
      doc["kind"] = BackgroundErrorKindName(est.kind);
      doc["cause"] = est.cause.ToString();
      doc["retry_count"] = static_cast<int64_t>(est.retry_count);
      doc["auto_recoverable"] = est.auto_recoverable;
      doc["next_retry_at_us"] = static_cast<int64_t>(est.next_retry_at_us);
    }
    doc["resume_successes"] =
        static_cast<int64_t>(error_handler_.resume_successes());
    doc["resume_failures"] =
        static_cast<int64_t>(error_handler_.resume_failures());
    *value = json::Value(std::move(doc)).Dump();
    return true;
  }
  return false;
}

Status DBImpl::SetOptions(
    const std::map<std::string, std::string>& changes) {
  if (changes.empty()) {
    return Status::InvalidArgument("SetOptions", "no changes supplied");
  }
  std::lock_guard<std::mutex> l(mu_);
  return ApplyDynamicOptionsLocked(changes, "set_options");
}

Status DBImpl::ApplyDynamicOptionsLocked(
    const std::map<std::string, std::string>& changes,
    const std::string& source) {
  const OptionsSchema& schema = OptionsSchema::Instance();

  // Phase 1: validate everything against a scratch copy. Nothing is
  // applied unless every entry passes (all-or-nothing).
  Options next = options_;
  for (const auto& [name, value] : changes) {
    const OptionInfo* info = schema.Find(name);
    if (info == nullptr) {
      if (const DeprecatedOption* dep = schema.FindDeprecated(name)) {
        return Status::InvalidArgument(
            name, "deprecated option (" + dep->note + ")");
      }
      return Status::InvalidArgument(name, "unknown option");
    }
    if (!info->runtime_mutable) {
      return Status::InvalidArgument(
          name, "immutable at runtime (open-time option)");
    }
    Status s = info->set(&next, value);
    if (!s.ok()) return s;
  }

  // The sampler (and its thread) cannot be created or destroyed on a
  // live DB: the cadence may change but not cross zero.
  if ((options_.stats_sample_interval_ms == 0) !=
      (next.stats_sample_interval_ms == 0)) {
    return Status::InvalidArgument(
        "stats_sample_interval_ms",
        "cannot start or stop the sampler at runtime (0 <-> nonzero)");
  }

  // Re-impose the open-time invariants relating options to each other,
  // so a partial update cannot wedge the stall state machine (e.g. stop
  // trigger below slowdown trigger) and lands where a reopen would.
  next = SanitizeOptions(next);

  // Phase 2: diff the *effective* (post-clamp) values. Entries the
  // clamp reverted are dropped; an all-no-op call succeeds without
  // recording anything.
  OptionsChangeRecord rec;
  rec.ts_us = env_->NowMicros();
  rec.source = source;
  for (const auto& [name, value] : changes) {
    const OptionInfo* info = schema.Find(name);
    const std::string from = info->get(options_);
    const std::string to = info->get(next);
    if (from == to) continue;
    rec.deltas.push_back({name, from, to});
  }
  if (rec.deltas.empty()) return Status::OK();

  const Options prev = options_;
  options_ = next;

  // Phase 3: re-plumb dependent state, each guarded on actual change.
  // MakeRoomForWrite re-reads the stall triggers and buffer sizes from
  // options_ on every loop pass, so those need no extra wiring beyond
  // the wakeup below.
  if (next.block_cache_size != prev.block_cache_size) {
    block_cache_->SetCapacity(next.block_cache_size);
  }
  if (next.delayed_write_rate != prev.delayed_write_rate) {
    slowdown_limiter_.SetRate(next.delayed_write_rate);
  }
  const bool lanes_changed =
      next.ResolvedFlushSlots() != prev.ResolvedFlushSlots() ||
      next.ResolvedCompactionSlots() != prev.ResolvedCompactionSlots();
  if (sim_ != nullptr) {
    if (lanes_changed) {
      sim_->ConfigureLanes(next.ResolvedFlushSlots(),
                           next.ResolvedCompactionSlots());
    }
    if (next.ConfiguredMemoryFootprint() !=
        prev.ConfiguredMemoryFootprint()) {
      sim_->SetAppMemoryFootprint(next.ConfiguredMemoryFootprint());
    }
  } else if (lanes_changed) {
    env_->SetBackgroundThreads(next.ResolvedFlushSlots(),
                               JobPriority::kHigh);
    env_->SetBackgroundThreads(next.ResolvedCompactionSlots(),
                               JobPriority::kLow);
  }
  if (sampler_ != nullptr &&
      next.stats_sample_interval_ms != prev.stats_sample_interval_ms) {
    sampler_->SetInterval(next.stats_sample_interval_ms * 1000,
                          env_->NowMicros());
    sampler_interval_ms_.store(next.stats_sample_interval_ms,
                               std::memory_order_relaxed);
    sampler_cv_.notify_all();
  }
  if (health_ != nullptr) {
    // Diagnosis thresholds (triggers, capacities) track the live config.
    health_->SetEngineOptions(options_);
  }

  // Phase 4: record — LOG event, ticker, bounded ledger.
  stats_.Add(Ticker::kOptionsChanges, 1);
  if (info_event_log_ != nullptr) {
    json::Object fields;
    fields["source"] = source;
    json::Array deltas;
    for (const auto& d : rec.deltas) {
      json::Object dj;
      dj["name"] = d.name;
      dj["from"] = d.from;
      dj["to"] = d.to;
      deltas.push_back(std::move(dj));
    }
    fields["deltas"] = std::move(deltas);
    info_event_log_->LogEvent("options_change", std::move(fields));
  }
  options_changes_.push_back(std::move(rec));
  while (options_changes_.size() > 64) options_changes_.pop_front();

  // Phase 5: persist, so a reopen with recover_persisted_options
  // resumes from here. Skipped during recovery replay — Recover()
  // rewrites the OPTIONS file right after.
  if (source != "recovery") {
    std::string old_options = FindLatestOptionsFile(env_, dbname_);
    std::string fname =
        OptionsFileName(dbname_, versions_->NewFileNumber());
    Status os = SaveOptionsFile(env_, fname, options_);
    if (os.ok() && !old_options.empty() && old_options != fname) {
      env_->RemoveFile(old_options);
    }
    if (!os.ok()) {
      ELMO_LOG_WARN(options_.info_log.get(),
                    "failed to persist OPTIONS file after SetOptions: %s",
                    os.ToString().c_str());
    }
  }

  // Phase 6: wake anything the new limits may unblock — stalled
  // writers re-read options_ on their next loop pass, background
  // scheduling re-evaluates under the new parallelism.
  MaybeScheduleFlush();
  MaybeScheduleCompaction();
  bg_work_finished_.notify_all();
  return Status::OK();
}

Status DBImpl::FlushMemTable() {
  std::unique_lock<std::mutex> l(mu_);
  if (mem_->NumEntries() > 0) {
    Status s = SwitchMemTable();
    if (!s.ok()) return s;
  }
  if (imm_.empty()) return Status::OK();

  if (!error_handler_.ok()) MaybeResumeLocked();

  // A forced flush must respect the free-space guard too: writing the
  // SST on a nearly full disk risks a mid-file failure, so pause the
  // episode instead and let Resume() retry once space is reclaimed.
  if (error_handler_.ok() && SpaceLowLocked(BackgroundErrorSource::kFlush)) {
    return error_handler_.BackgroundWorkStatus();
  }

  if (sim_ != nullptr) {
    RunFlushSim();
    return error_handler_.BackgroundWorkStatus();
  }
  // Real mode: force a flush even below the merge threshold, and keep
  // re-arming until our memtables drain. A recoverable error episode is
  // ridden out here (the recovery thread re-schedules the flush); only
  // a terminal error breaks the wait.
  while (!imm_.empty() && !shutting_down_.load() &&
         (error_handler_.ok() || error_handler_.state().auto_recoverable)) {
    if (error_handler_.ok() && active_flushes_ < 1) {
      active_flushes_++;
      env_->Schedule([this] { BackgroundFlushCall(); }, JobPriority::kHigh);
    }
    bg_work_finished_.wait(l);
  }
  return error_handler_.BackgroundWorkStatus();
}

void DBImpl::SettleVirtualClockLocked() {
  // REQUIRES: mu_ held, sim mode. Everything ran inline; settle the
  // virtual clock past the last scheduled completion so the stall
  // counters drain.
  while (true) {
    const uint64_t now = sim_->NowMicros();
    const std::optional<uint64_t> next = vstall_.NextEventAfter(now);
    if (!next.has_value() || *next <= now) break;
    sim_->AdvanceTo(*next);
    vstall_.ProcessUntil(*next);
  }
}

Status DBImpl::WaitForBackgroundWork() {
  if (sim_ != nullptr) {
    std::lock_guard<std::mutex> l(mu_);
    SettleVirtualClockLocked();
    // Ride out a recoverable error episode: jump the clock to each
    // scheduled retry and attempt it (bounded by the retry budget).
    while (!error_handler_.ok() && error_handler_.state().auto_recoverable &&
           !shutting_down_.load()) {
      const uint64_t next = error_handler_.next_retry_at_us();
      if (next > sim_->NowMicros()) sim_->AdvanceTo(next);
      MaybeResumeLocked();
      SettleVirtualClockLocked();
    }
    MaybeSampleLocked();
    return error_handler_.BackgroundWorkStatus();
  }
  std::unique_lock<std::mutex> l(mu_);
  MaybeScheduleFlush();
  MaybeScheduleCompaction();
  bg_work_finished_.wait(l, [this] {
    return (active_flushes_ == 0 && active_compactions_ == 0 &&
            (imm_.empty() ||
             static_cast<int>(imm_.size()) <
                 options_.min_write_buffer_number_to_merge) &&
            !versions_->NeedsCompaction()) ||
           (!error_handler_.ok() &&
            !error_handler_.state().auto_recoverable) ||
           shutting_down_.load();
  });
  MaybeSampleLocked();
  return error_handler_.BackgroundWorkStatus();
}

void DBImpl::GetApproximateSizes(const Range* ranges, int n,
                                 uint64_t* sizes) {
  std::shared_ptr<Version> version;
  {
    std::lock_guard<std::mutex> l(mu_);
    version = versions_->current();
  }
  const Comparator* ucmp = internal_comparator_.user_comparator();

  for (int i = 0; i < n; i++) {
    uint64_t total = 0;
    for (int level = 0; level < version->num_levels(); level++) {
      for (const auto& f : version->files(level)) {
        Slice file_start = f->smallest.user_key();
        Slice file_limit = f->largest.user_key();
        if (ucmp->Compare(file_limit, ranges[i].start) < 0 ||
            ucmp->Compare(file_start, ranges[i].limit) >= 0) {
          continue;  // disjoint
        }
        const bool fully_inside =
            ucmp->Compare(file_start, ranges[i].start) >= 0 &&
            ucmp->Compare(file_limit, ranges[i].limit) < 0;
        // Partially overlapping files are charged half — a coarse but
        // monotone estimate (leveldb refines via the table index; the
        // tooling this serves only needs rough proportions).
        total += fully_inside ? f->file_size : f->file_size / 2;
      }
    }
    sizes[i] = total;
  }
}

Status DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  Status s = FlushMemTable();
  if (!s.ok()) return s;
  s = WaitForBackgroundWork();
  if (!s.ok()) return s;

  std::unique_lock<std::mutex> l(mu_);
  manual_compaction_active_ = true;

  InternalKey begin_key, end_key;
  InternalKey* begin_ptr = nullptr;
  InternalKey* end_ptr = nullptr;
  if (begin != nullptr) {
    begin_key = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    begin_ptr = &begin_key;
  }
  if (end != nullptr) {
    end_key = InternalKey(*end, 0, static_cast<ValueType>(0));
    end_ptr = &end_key;
  }

  for (int level = 0; level < options_.num_levels - 1 && s.ok(); level++) {
    while (s.ok()) {
      std::unique_ptr<Compaction> c =
          versions_->CompactRange(level, begin_ptr, end_ptr);
      if (c == nullptr) break;
      s = RunCompactionJob(std::move(c), CompactionReason::kManual);
    }
  }

  manual_compaction_active_ = false;

  if (sim_ != nullptr) {
    // Run the virtual clock past the manual jobs' lane completions and
    // resynchronize the L0 counter with the real tree.
    SettleVirtualClockLocked();
    vstall_.SetInitialL0(versions_->NumLevelFiles(0));
  }
  return s;
}

}  // namespace elmo::lsm
