// BenchResult: measured outcome of one benchmark run, its db_bench-
// style text rendering (what the tuning prompt carries) and its JSON
// document.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_kit/cache_sim.h"
#include "bench_kit/io_analyzer.h"
#include "bench_kit/span_analyzer.h"
#include "bench_kit/workload.h"
#include "lsm/stats_sampler.h"
#include "monitor/health_monitor.h"
#include "util/histogram.h"

namespace elmo::bench {

// Version of the JSON layout emitted by BenchResult::ToJson and the
// BENCH_*.json trajectory files (bench_kit/regression.h). Bump whenever
// a field is renamed/removed or its semantics change; comparisons across
// different schema versions are refused, not guessed at.
inline constexpr int kBenchSchemaVersion = 3;

// Toolchain the binary was built with: "<compiler id> <version> <build
// type>", CMake-injected (e.g. "GNU 12.2.0 RelWithDebInfo"). Metadata
// only — never part of metric comparisons.
const char* BuildStamp();

struct BenchResult {
  std::string workload;
  uint64_t ops = 0;  // completed without error
  // Ops that failed (NotFound is not a failure). A failed write ends the
  // run; a run with any error is scored as failed.
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t scan_errors = 0;
  double elapsed_seconds = 0;
  double ops_per_sec = 0;
  double mb_per_sec = 0;

  Histogram write_micros;
  Histogram read_micros;

  // Engine/environment counters worth showing the LLM.
  uint64_t write_stall_micros = 0;
  uint64_t write_slowdowns = 0;
  uint64_t write_stops = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t writeback_stalls = 0;
  double block_cache_hit_rate = 0;
  std::string level_summary;

  // Write-amplification inputs (cumulative tickers at end of run):
  // user bytes acknowledged vs. everything the engine wrote for them.
  uint64_t user_bytes_written = 0;
  uint64_t wal_bytes = 0;
  uint64_t flush_bytes = 0;
  uint64_t compaction_bytes_written = 0;

  // SimEnv seed the run used; 0 when unknown (non-simulated envs).
  uint64_t sim_seed = 0;

  // Full "elmo.stats" dump (tickers, stall reasons, latency/size
  // histograms, per-level table) captured at the end of the run.
  std::string engine_stats;

  // Per-interval telemetry recorded by the engine's StatsSampler
  // (GetProperty("elmo.timeseries")): the throughput-over-time data the
  // figures and the tuning prompt use.
  std::vector<lsm::IntervalSample> timeseries;
  uint64_t sample_interval_us = 0;
  // Samples the ring (Options::stats_history_size) evicted: a nonzero
  // count means `timeseries` starts after the run did.
  uint64_t timeseries_dropped = 0;

  // Offline-analyzer results from the run's IO, block-cache and span
  // traces (bench_kit/io_analyzer.h, cache_sim.h, span_analyzer.h), and
  // the live monitor's verdict at the end of the run. Each is empty when
  // the run captured nothing for it. ToReport renders them as text and
  // ToJson embeds their documents.
  std::optional<IOAnalysis> io_analysis;
  std::optional<CacheSimResult> cache_sim;
  // The scaled block_cache_size the run used: the capacity the
  // miss-ratio text marks "(configured)".
  uint64_t scaled_block_cache_size = 0;
  std::optional<SpanAttribution> span_attribution;
  std::optional<monitor::HealthReport> health;

  // Convenience accessors used by tables/figures.
  double p99_write_us() const {
    return write_micros.Count() ? write_micros.Percentile(99.0) : 0;
  }
  double p99_read_us() const {
    return read_micros.Count() ? read_micros.Percentile(99.0) : 0;
  }
  double p999_write_us() const {
    return write_micros.Count() ? write_micros.Percentile(99.9) : 0;
  }
  double p999_read_us() const {
    return read_micros.Count() ? read_micros.Percentile(99.9) : 0;
  }

  // (WAL + flush + compaction bytes) / user bytes; 0 when no user
  // writes happened (pure-read runs).
  double WriteAmplification() const {
    if (user_bytes_written == 0) return 0;
    return static_cast<double>(wal_bytes + flush_bytes +
                               compaction_bytes_written) /
           static_cast<double>(user_bytes_written);
  }

  uint64_t errors() const { return read_errors + write_errors + scan_errors; }

  std::string ToReport() const;

  // Machine-readable variant of the report (headline numbers + the full
  // time series); what CI uploads as the smoke-run artifact.
  std::string ToJson() const;
};

// Render a time series as the fixed-width "Throughput over time" table
// used by reports and figure output. At most `max_rows` rows are shown
// (strided evenly); 0 means no limit. Empty input yields "".
std::string TimeSeriesTable(const std::vector<lsm::IntervalSample>& samples,
                            size_t max_rows);

}  // namespace elmo::bench
