// StatsSampler: turns the cumulative DbStats registry into a bounded
// time series. On every tick it snapshots the registry, computes the
// delta against the previous tick (StatsSnapshot::Delta), and records
// one IntervalSample — ops/s, interval p99 latencies, stall fraction,
// compaction debt, memtable memory, per-level file counts — into a ring
// of fixed capacity (drop-oldest).
//
// Ticks run on the *engine* clock: virtual time under SimEnv (the DB
// piggybacks ticks on its write/read/background paths, since no real
// thread can observe virtual time), wall time under PosixEnv/MemEnv
// (DBImpl runs a dedicated sampler thread). The ring is read typed
// through DB::GetTimeSeries() and as JSON through
// GetProperty("elmo.timeseries") — the native source of the paper's
// Fig. 3/4 throughput-over-time curves.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "lsm/stats.h"
#include "util/json.h"
#include "util/status.h"

namespace elmo::lsm {

// Instantaneous engine state the registry does not carry; filled by
// DBImpl (which can see memtables and the version tree) at tick time.
struct EngineGauges {
  uint64_t memtable_bytes = 0;  // active + immutable memtables
  int imm_count = 0;
  uint64_t pending_compaction_bytes = 0;  // compaction debt estimate
  int num_levels = 0;
  int level_files[DbStats::kMaxLevels] = {};
  uint64_t block_cache_usage = 0;  // bytes charged to the block cache
  // Active background-error severity (ErrorSeverity as int: 0 none,
  // 1 soft, 2 hard, 3 fatal).
  int bg_error_severity = 0;

  // Cumulative span-phase totals since this DB opened (DBImpl reports
  // the global aggregate minus its open-time baseline, so values are
  // per-run even though the aggregate is process-wide). The sampler
  // turns them into interval deltas.
  uint64_t span_stall_us = 0;     // kStallWait
  uint64_t span_wal_sync_us = 0;  // kWalSync
  uint64_t span_sst_probe_us = 0; // kSstProbe
  uint64_t span_memtable_us = 0;  // kMemtableInsert + kMemtableProbe
};

// One recorded interval. Counts are deltas over [ts_us - interval_us,
// ts_us]; gauges are the state at ts_us. Timestamps are engine-clock
// micros (virtual under SimEnv).
struct IntervalSample {
  uint64_t ts_us = 0;
  uint64_t interval_us = 0;

  // Interval counts / rates.
  uint64_t ops = 0;     // writes + gets
  uint64_t writes = 0;  // user write ops
  uint64_t gets = 0;    // hits + misses
  uint64_t seeks = 0;   // iterator Seek ops (not folded into `ops`)
  double ops_per_sec = 0;
  double p50_write_us = 0;  // interval percentiles, not cumulative
  double p99_write_us = 0;
  double p99_get_us = 0;
  uint64_t stall_micros = 0;
  double stall_fraction = 0;  // stall_micros / interval, clamped to 1
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t block_cache_hits = 0;    // interval delta
  uint64_t block_cache_misses = 0;  // interval delta
  uint64_t bg_errors = 0;              // interval delta, all severities
  uint64_t auto_resume_successes = 0;  // interval delta
  uint64_t auto_resume_failures = 0;   // interval delta

  // Gauges at the sample instant.
  uint64_t memtable_bytes = 0;
  int imm_count = 0;
  uint64_t pending_compaction_bytes = 0;
  int l0_files = 0;
  int num_levels = 0;
  int level_files[DbStats::kMaxLevels] = {};
  uint64_t block_cache_usage = 0;
  int bg_error_severity = 0;  // ErrorSeverity at the sample instant

  // Interval span-phase micros (deltas of the EngineGauges span fields):
  // where engine time went during this interval.
  uint64_t span_stall_us = 0;
  uint64_t span_wal_sync_us = 0;
  uint64_t span_sst_probe_us = 0;
  uint64_t span_memtable_us = 0;
};

// The sampler's ring as one consistent read: cadence, samples evicted
// so far, and the retained samples oldest first.
struct TimeSeries {
  uint64_t interval_us = 0;
  uint64_t dropped = 0;
  std::vector<IntervalSample> samples;
};

// Per-sample JSON codec, shared by TimeSeriesToJson, the full
// `sampler_tick` LOG events and the monitor's offline replayers.
json::Object SampleToJsonObject(const IntervalSample& s);
IntervalSample SampleFromJsonValue(const json::Value& obj);

// Render a series as the "elmo.timeseries" JSON document:
//   {"interval_us": N, "dropped": N, "samples": [{...}, ...]}
std::string TimeSeriesToJson(const TimeSeries& series);

// Parse a document produced by TimeSeriesToJson. Unknown fields are
// ignored; missing fields default to zero.
Status TimeSeriesFromJson(const std::string& text,
                          std::vector<IntervalSample>* samples,
                          uint64_t* interval_us = nullptr,
                          uint64_t* dropped = nullptr);

class StatsSampler {
 public:
  // `interval_us` must be > 0. `start_ts_us` anchors the first interval.
  StatsSampler(const DbStats* stats, uint64_t interval_us, size_t capacity,
               uint64_t start_ts_us);

  // Cheap lock-free pre-check for hot paths: is a sample due at `now`?
  bool Due(uint64_t now_us) const {
    return now_us >= next_due_.load(std::memory_order_relaxed);
  }

  // Record one sample covering (prev tick, now] if one is due. Returns
  // true when a sample was recorded. Thread-safe.
  bool Tick(uint64_t now_us, const EngineGauges& gauges);

  // Most recent sample; only meaningful when NumSamples() > 0.
  IntervalSample Latest() const;
  size_t NumSamples() const;
  // Samples evicted from the ring so far (drop-oldest).
  uint64_t DroppedSamples() const;
  // Ticks that arrived at least one full interval late — the sampler
  // thread (or the SimEnv piggyback sites) fell behind the configured
  // cadence. A monitor health signal, not an error.
  uint64_t LateTicks() const;
  uint64_t interval_us() const {
    return interval_us_.load(std::memory_order_relaxed);
  }

  // Retime a live sampler (DB::SetOptions changing
  // stats_sample_interval_ms). The ring and its history are preserved;
  // the next sample falls due one new interval after the last tick (or
  // immediately if that instant already passed). Thread-safe.
  void SetInterval(uint64_t interval_us, uint64_t now_us);

  // Interval, dropped count and samples, taken under one lock.
  TimeSeries Series() const;

 private:
  const DbStats* const stats_;
  std::atomic<uint64_t> interval_us_;
  const size_t capacity_;

  std::atomic<uint64_t> next_due_;

  mutable std::mutex mu_;
  StatsSnapshot prev_;
  uint64_t prev_ts_us_;
  // Last tick's cumulative span gauges (per-DB baselined, so 0 at open).
  uint64_t prev_span_stall_us_ = 0;
  uint64_t prev_span_wal_sync_us_ = 0;
  uint64_t prev_span_sst_probe_us_ = 0;
  uint64_t prev_span_memtable_us_ = 0;
  std::deque<IntervalSample> ring_;
  uint64_t dropped_ = 0;
  uint64_t late_ticks_ = 0;
};

}  // namespace elmo::lsm
