// DB: the public interface of the elmo LSM key-value store — the
// from-scratch substrate standing in for RocksDB 8.8.1 in this
// reproduction (see DESIGN.md §1).
//
// Quickstart:
//   elmo::lsm::Options options;
//   options.create_if_missing = true;
//   std::unique_ptr<elmo::lsm::DB> db;
//   auto s = elmo::lsm::DB::Open(options, "/tmp/db", &db);
//   db->Put({}, "key", "value");
//   std::string value;
//   s = db->Get({}, "key", &value);
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "lsm/options.h"
#include "lsm/span.h"
#include "lsm/stats.h"
#include "lsm/stats_sampler.h"
#include "lsm/write_batch.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace elmo::monitor {
struct HealthReport;
}  // namespace elmo::monitor

namespace elmo::lsm {

// A read-consistent point in time; obtained from GetSnapshot.
class Snapshot {
 public:
  virtual ~Snapshot() = default;
};

class DB {
 public:
  // Opens (creating per options.create_if_missing) the database at
  // `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  // Deletes all persistent state of the database at `name`.
  static Status DestroyDB(const std::string& name, const Options& options);

  DB() = default;
  virtual ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Iterator over the whole DB; honors options.snapshot.
  virtual std::unique_ptr<Iterator> NewIterator(
      const ReadOptions& options) = 0;

  // Change runtime-mutable options on the live DB. Every (name, value)
  // pair is validated against the options schema first — unknown names,
  // immutable-at-runtime options, ill-typed or out-of-range values all
  // fail with InvalidArgument and NOTHING is applied (all-or-nothing).
  // On success the new values take effect atomically under the DB
  // mutex: the block cache is resized, stall thresholds re-armed, the
  // slowdown rate limiter re-rated, background parallelism re-plumbed,
  // the sampler cadence retimed, and waiting work woken. The call
  // records an "options_change" event in the JSONL LOG, bumps the
  // Ticker::kOptionsChanges counter, and rewrites the OPTIONS file so a
  // reopen (with Options::recover_persisted_options) resumes from the
  // last applied configuration. See OptionsSchema::MutableNames() for
  // the mutable subset.
  virtual Status SetOptions(
      const std::map<std::string, std::string>& changes) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // Supported properties:
  //   "elmo.stats"                       full telemetry dump: tickers,
  //                                      stall reasons, latency/size
  //                                      histograms, per-level table
  //   "elmo.levelstats"                  per-level files/bytes/score/
  //                                      read/write/amp table
  //   "elmo.levelsummary"                file count per level
  //   "elmo.num-files-at-level<N>"
  //   "elmo.estimate-pending-compaction-bytes"
  //   "elmo.block-cache-usage"
  //   "elmo.block-cache-hit-rate"
  //   "elmo.options"                     active options file text
  //   "elmo.perf"                        process-aggregated span
  //                                      breakdown: per-op and per-phase
  //                                      count/total/avg/max micros (see
  //                                      lsm/span.h SpanAggregate)
  //   "elmo.timeseries"                  GetTimeSeries() as JSON:
  //                                      {"interval_us":N,"dropped":N,
  //                                       "samples":[{...}, ...]}
  //   "elmo.health"                      GetHealth() as JSON (status,
  //                                      anomalies, ranked diagnoses);
  //                                      {"status": "disabled"} when the
  //                                      sampler or monitor is off
  //   "elmo.prometheus"                  Prometheus text exposition of
  //                                      tickers/gauges/quantiles (same
  //                                      content as metrics_export_path)
  //   "elmo.options_changes"             JSON ledger of applied dynamic
  //                                      option changes: {"count":N,
  //                                      "changes":[{"ts_us":..,
  //                                      "source":..,"deltas":[{"name":
  //                                      ..,"from":..,"to":..}]}]}
  //   "elmo.bg_error"                    JSON background-error state:
  //                                      {"severity":"none|soft|hard|
  //                                      fatal", and while degraded
  //                                      "source","kind","cause",
  //                                      "retry_count","auto_recoverable",
  //                                      "next_retry_at_us"} plus lifetime
  //                                      resume success/failure counts
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Typed telemetry reads for in-process consumers (bench harness,
  // online tuner); the two JSON properties above render from them.
  // Each read is a sampler tick opportunity, so a SimEnv run that just
  // advanced virtual time gets an up-to-date final sample.
  //
  // The StatsSampler's ring (enabled via
  // options.stats_sample_interval_ms); empty when the sampler is off.
  virtual TimeSeries GetTimeSeries() = 0;
  // The live monitor's verdict as of this read; nullopt when the
  // sampler or the monitor (options.enable_health_monitor) is off.
  // Callers include monitor/health_monitor.h.
  virtual std::optional<monitor::HealthReport> GetHealth() = 0;

  // Compact the key range [*begin, *end]; null means open-ended.
  virtual Status CompactRange(const Slice* begin, const Slice* end) = 0;

  // Approximate on-disk bytes used by each key range [begin, end).
  struct Range {
    Slice start;
    Slice limit;
    Range(const Slice& s, const Slice& l) : start(s), limit(l) {}
  };
  virtual void GetApproximateSizes(const Range* ranges, int n,
                                   uint64_t* sizes) = 0;

  // Flush the active memtable and wait for it to land in L0.
  virtual Status FlushMemTable() = 0;

  // Block until all scheduled background work has settled.
  virtual Status WaitForBackgroundWork() = 0;

  // Manually recover from a background error state (see
  // lsm/error_handler.h). Soft/hard errors are retried immediately —
  // re-syncing the WAL/MANIFEST and re-scheduling paused flushes and
  // compactions on success; while degraded, reads keep serving and
  // writes fail fast with a self-describing Status. Returns OK when the
  // DB is healthy (or was already), the blocking error otherwise; fatal
  // errors always fail (reopen required). No-op on a healthy DB.
  virtual Status Resume() = 0;

  // Start recording every user operation (puts, deletes, gets) to a
  // trace file at `path` (see lsm/trace.h for the format and
  // bench_kit/trace_replay.h for the replayer). Returns Busy if a trace
  // is already active.
  virtual Status StartTrace(const std::string& path) = 0;
  // Stop recording and finalize the trace file. Returns InvalidArgument
  // if no trace is active.
  virtual Status EndTrace() = 0;

  // Start recording every file read/write/sync the engine issues to a
  // binary IO trace at `path` (see env/io_trace.h for the record format
  // and bench_kit/io_analyzer.h for the offline analyzer). Returns Busy
  // if an IO trace is already active.
  virtual Status StartIOTrace(const std::string& path) = 0;
  virtual Status EndIOTrace() = 0;

  // Start recording every block-cache lookup (data/index/filter blocks)
  // to a trace at `path` (see table/block_cache_tracer.h for the format
  // and bench_kit/cache_sim.h for the miss-ratio-curve simulator).
  // Returns Busy if a block-cache trace is already active.
  virtual Status StartBlockCacheTrace(const std::string& path) = 0;
  virtual Status EndBlockCacheTrace() = 0;

  // Start the slow-op log: completed operation span trees whose root
  // exceeds options.slow_op_threshold_us — plus every
  // options.sample_every-th op of each kind — are serialized to a
  // CRC-framed span trace at `path` (see lsm/span.h for the format and
  // bench_kit/span_analyzer.h for the latency-attribution analyzer and
  // the Chrome trace-event exporter). Returns Busy if a span trace is
  // already active.
  virtual Status StartSpanTrace(const std::string& path,
                                const SpanTraceOptions& options = {}) = 0;
  // Stop and finalize the span trace. Returns InvalidArgument if no
  // span trace is active.
  virtual Status EndSpanTrace() = 0;

  virtual const DbStats& stats() const = 0;
  virtual const Options& options() const = 0;
};

}  // namespace elmo::lsm
