#include "bench_kit/report.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace elmo::bench {

#ifndef ELMO_BUILD_STAMP
#define ELMO_BUILD_STAMP "unknown"
#endif

const char* BuildStamp() { return ELMO_BUILD_STAMP; }

std::string TimeSeriesTable(const std::vector<lsm::IntervalSample>& samples,
                            size_t max_rows) {
  if (samples.empty()) return "";
  const size_t stride =
      max_rows == 0 ? 1 : std::max<size_t>(1, (samples.size() + max_rows - 1) /
                                                  max_rows);
  std::string out =
      "    t(s)      ops/s   p99w(us)   p99r(us)  stall%  L0  pend(MB)\n";
  char buf[160];
  for (size_t i = 0; i < samples.size(); i += stride) {
    // Keep the final sample visible even when striding skips it.
    const lsm::IntervalSample& s =
        (i + stride >= samples.size()) ? samples.back() : samples[i];
    snprintf(buf, sizeof(buf),
             "%8.2f %10.0f %10.1f %10.1f %6.1f %3d %9.1f\n",
             s.ts_us / 1e6, s.ops_per_sec, s.p99_write_us, s.p99_get_us,
             s.stall_fraction * 100.0, s.l0_files,
             s.pending_compaction_bytes / 1048576.0);
    out += buf;
    if (i + stride >= samples.size()) break;
  }
  return out;
}

namespace {

// "<title>:\n<body>", newline-terminated; nothing for an empty body.
void AppendBlock(const char* title, const std::string& body,
                 std::string* out) {
  if (body.empty()) return;
  *out += title;
  *out += ":\n";
  *out += body;
  if (body.back() != '\n') *out += '\n';
}

}  // namespace

std::string BenchResult::ToReport() const {
  std::string out;
  char buf[512];
  double micros_per_op =
      ops == 0 ? 0 : elapsed_seconds * 1e6 / static_cast<double>(ops);
  snprintf(buf, sizeof(buf),
           "%-22s : %11.3f micros/op %.0f ops/sec; %.1f MB/s; "
           "%llu ops done; elapsed %.3f seconds\n",
           workload.c_str(), micros_per_op, ops_per_sec, mb_per_sec,
           (unsigned long long)ops, elapsed_seconds);
  out += buf;

  if (write_micros.Count() > 0) {
    out += "Microseconds per write:\n";
    out += write_micros.ToString();
  }
  if (read_micros.Count() > 0) {
    out += "Microseconds per read:\n";
    out += read_micros.ToString();
  }

  snprintf(buf, sizeof(buf),
           "Stalls: slowdown %llu, stop %llu, stall-micros %llu, "
           "os-writeback-bursts %llu\n",
           (unsigned long long)write_slowdowns,
           (unsigned long long)write_stops,
           (unsigned long long)write_stall_micros,
           (unsigned long long)writeback_stalls);
  out += buf;
  snprintf(buf, sizeof(buf),
           "Background: flushes %llu, compactions %llu; block cache hit "
           "rate %.4f\n",
           (unsigned long long)flushes, (unsigned long long)compactions,
           block_cache_hit_rate);
  out += buf;
  if (!level_summary.empty()) {
    out += "LSM shape: " + level_summary + "\n";
  }
  AppendBlock("Engine statistics", engine_stats, &out);
  if (!timeseries.empty()) {
    // Rows deliberately avoid the "ops/sec" text so the simulated
    // expert's throughput scan (SimulatedExpertLlm::ParsePrompt) cannot
    // match them.
    out += "Throughput over time:\n";
    out += TimeSeriesTable(timeseries, 20);
  }
  std::string io_cache = io_analysis ? io_analysis->ToPromptText() : "";
  if (cache_sim) {
    if (!io_cache.empty()) io_cache += "\n";
    io_cache += cache_sim->ToPromptText(scaled_block_cache_size);
  }
  AppendBlock("IO & cache evidence", io_cache, &out);
  if (span_attribution) {
    AppendBlock("Latency attribution", span_attribution->ToText(), &out);
  }
  if (health) AppendBlock("Health & diagnosis", health->ToText(), &out);
  return out;
}

std::string BenchResult::ToJson() const {
  json::Object doc;
  // Self-description first: every BENCH artifact carries the schema
  // version, the toolchain that built it and the SimEnv seed, so files
  // from different PRs are comparable (or provably not).
  doc["schema_version"] = kBenchSchemaVersion;
  doc["build"] = BuildStamp();
  doc["sim_seed"] = static_cast<int64_t>(sim_seed);
  doc["workload"] = workload;
  doc["ops"] = static_cast<int64_t>(ops);
  doc["read_errors"] = static_cast<int64_t>(read_errors);
  doc["write_errors"] = static_cast<int64_t>(write_errors);
  doc["scan_errors"] = static_cast<int64_t>(scan_errors);
  doc["elapsed_seconds"] = elapsed_seconds;
  doc["ops_per_sec"] = ops_per_sec;
  doc["mb_per_sec"] = mb_per_sec;
  doc["p99_write_us"] = p99_write_us();
  doc["p99_read_us"] = p99_read_us();
  doc["write_stall_micros"] = static_cast<int64_t>(write_stall_micros);
  doc["write_slowdowns"] = static_cast<int64_t>(write_slowdowns);
  doc["write_stops"] = static_cast<int64_t>(write_stops);
  doc["flushes"] = static_cast<int64_t>(flushes);
  doc["compactions"] = static_cast<int64_t>(compactions);
  doc["block_cache_hit_rate"] = block_cache_hit_rate;
  doc["level_summary"] = level_summary;
  doc["p999_write_us"] = p999_write_us();
  doc["p999_read_us"] = p999_read_us();
  doc["user_bytes_written"] = static_cast<int64_t>(user_bytes_written);
  doc["wal_bytes"] = static_cast<int64_t>(wal_bytes);
  doc["flush_bytes"] = static_cast<int64_t>(flush_bytes);
  doc["compaction_bytes_written"] =
      static_cast<int64_t>(compaction_bytes_written);
  doc["write_amplification"] = WriteAmplification();
  // The time series and the analyzers' documents ride along so one
  // artifact carries the whole run: throughput, telemetry, IO breakdown,
  // miss-ratio curve, latency attribution, health.
  json::Array samples;
  for (const lsm::IntervalSample& s : timeseries) {
    samples.emplace_back(lsm::SampleToJsonObject(s));
  }
  doc["timeseries"] = json::Object{
      {"interval_us", static_cast<int64_t>(sample_interval_us)},
      {"dropped", static_cast<int64_t>(timeseries_dropped)},
      {"samples", std::move(samples)}};
  if (io_analysis) doc["io_analysis"] = io_analysis->ToJson();
  if (cache_sim) doc["cache_sim"] = cache_sim->ToJson();
  if (span_attribution) doc["span_attribution"] = span_attribution->ToJson();
  if (health) doc["health"] = health->ToJson();
  return json::Value(std::move(doc)).Dump(2);
}

}  // namespace elmo::bench
