// DBImpl: the engine behind DB. Single-mutex design in the leveldb
// lineage, with two execution modes:
//
//  * real envs (Posix/Mem): flushes and compactions run on Env thread
//    pools; writers wait on a condition variable during stalls.
//  * SimEnv: background jobs run inline under a job meter and are
//    assigned virtual completion times on core lanes; writers stall
//    against VirtualStallState and jump the virtual clock forward.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "env/io_tracing_env.h"
#include "env/sim_env.h"
#include "env/space_monitor.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/error_handler.h"
#include "lsm/event_listener.h"
#include "lsm/info_logger.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/span.h"
#include "lsm/stats_sampler.h"
#include "lsm/trace.h"
#include "lsm/version_set.h"
#include "lsm/virtual_stall.h"
#include "monitor/health_monitor.h"
#include "util/rate_limiter.h"

namespace elmo::lsm {

class SnapshotImpl : public Snapshot {
 public:
  explicit SnapshotImpl(SequenceNumber seq) : sequence(seq) {}
  const SequenceNumber sequence;
};

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);
  ~DBImpl() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  void GetApproximateSizes(const Range* ranges, int n,
                           uint64_t* sizes) override;
  Status FlushMemTable() override;
  Status WaitForBackgroundWork() override;
  Status Resume() override;
  Status StartTrace(const std::string& path) override;
  Status EndTrace() override;
  Status StartIOTrace(const std::string& path) override;
  Status EndIOTrace() override;
  Status StartBlockCacheTrace(const std::string& path) override;
  Status EndBlockCacheTrace() override;
  Status StartSpanTrace(const std::string& path,
                        const SpanTraceOptions& options) override;
  Status EndSpanTrace() override;
  Status SetOptions(
      const std::map<std::string, std::string>& changes) override;
  const DbStats& stats() const override { return stats_; }
  const Options& options() const override { return options_; }

 private:
  friend class DB;

  struct ImmEntry {
    std::shared_ptr<MemTable> mem;
    uint64_t log_number;  // WAL file holding this memtable's data
  };

  struct CompactionOutput {
    uint64_t number;
    uint64_t file_size;
    InternalKey smallest, largest;
  };

  // --- open/recovery ---
  Status Recover();
  Status NewDBFiles();
  Status RecoverLogFile(uint64_t log_number, SequenceNumber* max_sequence);
  Status SwitchToNewLog();

  // --- write path ---
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& l);
  // Stop the writer holding `l` until `reason` may have cleared: jump the
  // virtual clock to the next event under SimEnv, else wait for a
  // background signal. Books the stop tickers, the stall span and
  // OnWriteStop. Busy when SimEnv has no pending event to wait for.
  Status StopWrites(std::unique_lock<std::mutex>& l, StallReason reason);
  // Seal the active memtable into imm_ behind a fresh WAL. REQUIRES: mu_.
  Status SwitchMemTable();
  int ImmCountForStall();     // virtual count under sim, real otherwise
  int L0CountForStall();

  // --- background: scheduling ---
  // Each job kind has one body (RunFlushJob / RunCompactionJob) that
  // every driver calls: the thread-pool entries under real envs, the
  // inline re-entrancy-guarded runners under SimEnv, and CompactRange.
  void MaybeScheduleFlush();       // REQUIRES: mu_
  void MaybeScheduleCompaction();  // REQUIRES: mu_
  void BackgroundFlushCall();      // thread-pool entry
  void BackgroundCompactionCall();
  void RunFlushSim();        // REQUIRES: mu_; runs inline under SimEnv
  void RunCompactionsSim();  // REQUIRES: mu_; runs inline under SimEnv

  // --- background: the job bodies ---
  // Run one flush / one compaction and account for it: record a failure
  // with the error handler, or measure the duration, fire the completed
  // event and note the success. The duration is the SimEnv job meter's
  // or the env clock's, and under SimEnv the job is booked on a core
  // lane and in vstall_; that is the only env-mode fork inside.
  // REQUIRES: mu_.
  void RunFlushJob();
  Status RunCompactionJob(std::unique_ptr<Compaction> c,
                          CompactionReason reason);
  CompactionReason AutoCompactionReason() const;

  // --- background: the work ---
  // Flush every queued immutable memtable into one L0 table. Fills
  // `info` (everything except duration_micros) and fires OnFlushBegin.
  // On failure `err_source` says which layer failed (the table build vs
  // the MANIFEST apply) so the error handler classifies it correctly.
  Status FlushWork(FlushJobInfo* info, BackgroundErrorSource* err_source);
  // Same contract for compactions; info->reason is preset.
  Status CompactionWork(std::unique_ptr<Compaction> c, int* l0_consumed,
                        int* l0_produced,
                        std::vector<uint64_t>* output_numbers,
                        CompactionJobInfo* info,
                        BackgroundErrorSource* err_source);
  Status WriteLevel0Table(const std::vector<std::shared_ptr<MemTable>>& mems,
                          VersionEdit* edit, FileMetaData* meta);
  Status OpenCompactionOutputFile(std::unique_ptr<WritableFile>* file,
                                  uint64_t* number);

  void RemoveObsoleteFiles();  // REQUIRES: mu_

  // --- background-error handling & self-healing (see error_handler.h) ---
  // Classify a background failure into the error state machine, bump the
  // severity tickers, fire OnBackgroundError, and wake stalled writers.
  // Aborted statuses during shutdown are ignored (orderly teardown, not
  // an error). REQUIRES: mu_.
  void RecordBackgroundError(BackgroundErrorSource source, const Status& s);
  // One recovery attempt (auto-resume retry or manual DB::Resume()):
  // repair per source/kind — recheck free space for NoSpace, switch to a
  // fresh WAL for WAL errors, force a fresh MANIFEST for manifest
  // errors — then clear the state and reschedule paused flushes and
  // compactions. On failure, backs off or escalates. REQUIRES: mu_.
  Status ResumeImpl(bool manual);
  // Run ResumeImpl if an auto-resume retry is due on the engine clock.
  // Piggybacked on foreground call sites (the only clock observer under
  // SimEnv); the recovery thread drives it under real envs.
  // REQUIRES: mu_.
  void MaybeResumeLocked();
  // True (and records a soft NoSpace pause) when the free-space monitor
  // says the headroom reserve is violated. REQUIRES: mu_.
  bool SpaceLowLocked(BackgroundErrorSource source);
  // Lazily start the real-env recovery thread. REQUIRES: mu_.
  void StartRecoveryThreadLocked();
  void RecoveryThreadLoop();
  // Advance the sim clock past every scheduled background completion so
  // the virtual stall counters drain. REQUIRES: mu_; sim mode only.
  void SettleVirtualClockLocked();
  void NotifyBackgroundError(const BackgroundErrorInfo& info);
  void NotifyErrorRecoveryBegin(const BackgroundErrorInfo& info);
  void NotifyErrorRecoveryCompleted(const BackgroundErrorInfo& info);

  SequenceNumber SmallestSnapshot() const;  // REQUIRES: mu_

  std::unique_ptr<Iterator> NewInternalIterator(const ReadOptions& options,
                                                SequenceNumber* latest_seq);

  // Charge the sim clock for a foreground write/get (no-op on real env).
  void ChargeWriteCpu(size_t batch_bytes, int batch_count);
  void ChargeGetCpu(int files_probed);

  // --- observability ---
  void NotifyFlushBegin(const FlushJobInfo& info);
  void NotifyFlushCompleted(const FlushJobInfo& info);
  void NotifyCompactionBegin(const CompactionJobInfo& info);
  void NotifyCompactionCompleted(const CompactionJobInfo& info);
  // Fires OnStallConditionChanged when `next` differs from the current
  // condition. REQUIRES: mu_.
  void UpdateStallCondition(StallCondition next, StallReason reason,
                            uint64_t wait_micros);
  void NotifyWriteStop(StallReason reason, uint64_t wait_micros);
  // RocksDB-style per-level table (files, bytes, score, read/write amp).
  // REQUIRES: mu_.
  std::string LevelStatsString() const;
  // Record a time-series sample if one is due on the engine clock. Under
  // SimEnv this is the only sampling mechanism: the DB piggybacks it on
  // write/read/background call sites, since no real thread can observe
  // virtual time. REQUIRES: mu_.
  void MaybeSampleLocked();
  // Instantaneous engine state for the sampler / metrics exposition.
  // REQUIRES: mu_.
  EngineGauges GatherGaugesLocked();
  // Fold the block cache's since-last-sync hit/miss deltas into the
  // stats registry tickers. REQUIRES: mu_.
  void SyncCacheStatsLocked();
  // Fold the BufferLogger dropped-line count and the info LOG's write
  // failures into the registry tickers. REQUIRES: mu_.
  void SyncLogStatsLocked();
  // Render the Prometheus exposition for the current state. REQUIRES:
  // mu_.
  std::string RenderPrometheusLocked();
  // Rewrite options_.metrics_export_path (no-op when unset); goes
  // through raw_env_ so exporting never shows up in IO traces.
  // REQUIRES: mu_.
  void ExportMetricsLocked();
  // Real-env sampler thread body (SimEnv never starts the thread).
  void SamplerThreadLoop();
  // The shared core of SetOptions(): validate `changes` against the
  // schema's runtime-mutable subset, apply them to options_, and
  // re-plumb dependent state (cache capacity, limiter rate, background
  // lanes/threads, sampler cadence). `source` tags the LOG event and
  // ledger entry ("set_options" for the public API, "recovery" when
  // replaying the persisted OPTIONS file at open). REQUIRES: mu_.
  Status ApplyDynamicOptionsLocked(
      const std::map<std::string, std::string>& changes,
      const std::string& source);
  // Stops `trace` and logs `event` with its record count.
  Status StopTrace(RecordTrace* trace, const char* event);
  // Logs `event` with `fields` when the trace Start/Stop `s` succeeded;
  // returns s.
  Status LogTraceEvent(const Status& s, const char* event,
                       json::Object fields);

  // --- constant state ---
  Options options_;  // sanitized copy
  const std::string dbname_;
  Env* raw_env_;  // env the user supplied; trace output is written here
  // All engine IO is routed through this decorator (options_.env is
  // repointed at it in the constructor) so DB::StartIOTrace can observe
  // every file operation. Declared before table_cache_/versions_ so it
  // outlives everything that holds an Env*.
  std::unique_ptr<IOTracingEnv> io_env_;
  Env* env_;     // == io_env_.get()
  SimEnv* sim_;  // non-null iff the raw env is deterministic
  std::shared_ptr<Cache> block_cache_;
  std::shared_ptr<BlockCacheTracer> block_cache_tracer_;
  InternalKeyComparator internal_comparator_;
  std::unique_ptr<TableCache> table_cache_;

  // --- mutable state, guarded by mu_ ---
  std::mutex mu_;
  std::condition_variable bg_work_finished_;
  std::shared_ptr<MemTable> mem_;
  std::deque<ImmEntry> imm_;
  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ = 0;
  std::unique_ptr<log::Writer> log_;
  uint64_t wal_bytes_since_sync_ = 0;
  uint64_t wal_live_bytes_ = 0;  // bytes in WALs with unflushed data

  std::unique_ptr<VersionSet> versions_;
  std::list<SequenceNumber> snapshots_;
  std::set<uint64_t> pending_outputs_;

  int active_flushes_ = 0;
  int active_compactions_ = 0;
  bool manual_compaction_active_ = false;
  // Classified background-error state machine; replaces the old sticky
  // bg_error_ Status. Guarded by mu_.
  ErrorHandler error_handler_;
  std::atomic<bool> shutting_down_{false};

  // Free-space headroom monitor (null unless
  // options.free_space_reserved_bytes > 0). Guarded by mu_.
  std::unique_ptr<SpaceMonitor> space_monitor_;

  // Write slowdown limiter (delayed_write_rate).
  RateLimiter slowdown_limiter_;

  // Sim-mode state.
  VirtualStallState vstall_;
  bool in_sim_background_ = false;  // re-entrancy guard

  // Current write-path throttle state (for listener transitions).
  StallCondition stall_condition_ = StallCondition::kNormal;

  DbStats stats_;
  // Cache counters already folded into the tickers; guarded by mu_.
  Cache::Stats last_cache_stats_;
  // Logger-loss counters already folded into the tickers; guarded by mu_.
  uint64_t last_info_log_dropped_ = 0;
  uint64_t last_info_log_failures_ = 0;

  // --- observability: time series, structured LOG, trace ---
  std::unique_ptr<StatsSampler> sampler_;  // null unless sampling enabled
  std::shared_ptr<DbInfoLogger> info_event_log_;
  // Live health pipeline (null unless the sampler is on and
  // enable_health_monitor is set); fed from MaybeSampleLocked, read by
  // GetProperty("elmo.health"). Guarded by mu_.
  std::unique_ptr<monitor::HealthMonitor> health_;
  monitor::HealthStatus last_health_status_ = monitor::HealthStatus::kOk;

  // Ledger of applied dynamic option changes, newest last; backs
  // GetProperty("elmo.options_changes"). Bounded drop-oldest. Guarded
  // by mu_.
  struct OptionsChangeRecord {
    uint64_t ts_us = 0;
    std::string source;
    struct Delta {
      std::string name, from, to;
    };
    std::vector<Delta> deltas;
  };
  std::deque<OptionsChangeRecord> options_changes_;

  // Real-env auto-resume thread (SimEnv piggybacks on foreground call
  // sites instead); started lazily on the first recoverable error,
  // joined in the destructor. Polls MaybeResumeLocked on a short
  // cadence — the backoff schedule itself lives in the error handler.
  std::thread recovery_thread_;
  std::mutex recovery_mu_;
  std::condition_variable recovery_cv_;
  bool recovery_stop_ = false;         // guarded by recovery_mu_
  bool recovery_thread_started_ = false;  // guarded by mu_

  // Real-env sampler thread; joined in the destructor before the info
  // LOG closes so no tick outlives the DB.
  std::thread sampler_thread_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  // guarded by sampler_mu_
  // Sampler cadence the thread sleeps on; atomic so a SetOptions retime
  // is visible without the thread taking mu_ just to read it.
  std::atomic<uint64_t> sampler_interval_ms_{0};

  // Workload trace, written through env_. Its mutex is a leaf, safe to
  // take with mu_ held.
  TraceWriter workload_trace_{env_};

  // Slow-op span trace. Always constructed (iterators hold a stable
  // SpanSink* into it); writes go to raw_env_ so the trace's own IO
  // never shows up in the IO trace. Initialized in the constructor
  // after raw_env_ is known.
  std::unique_ptr<SpanTracer> span_tracer_;
  // Global-aggregate totals at DB open; sampler gauges report the
  // difference so span columns are per-run even when several DBs share
  // the process.
  SpanAggregate::Snapshot span_baseline_;
};

}  // namespace elmo::lsm
