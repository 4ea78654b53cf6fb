#include "bench_kit/report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/json.h"
#include "util/string_util.h"

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

std::string BenchResult::IoCacheEvidence() const {
  std::string out;
  if (!io_breakdown.empty()) out += io_breakdown;
  if (!cache_sim_summary.empty()) {
    if (!out.empty()) out += "\n";
    out += cache_sim_summary;
  }
  return out;
}

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
  if (!engine_stats.empty()) {
    out += "Engine statistics:\n";
    out += engine_stats;
    if (engine_stats.back() != '\n') out += '\n';
  }
  if (!timeseries.empty()) {
    // Rows deliberately avoid the "micros/op ... ops/sec" shape so
    // ParseReport's throughput scan cannot match them.
    out += "Throughput over time:\n";
    out += TimeSeriesTable(timeseries, 20);
  }
  const std::string evidence = IoCacheEvidence();
  if (!evidence.empty()) {
    out += "IO & cache evidence:\n";
    out += evidence;
    if (evidence.back() != '\n') out += '\n';
  }
  if (!span_attribution_text.empty()) {
    out += "Latency attribution:\n";
    out += span_attribution_text;
    if (span_attribution_text.back() != '\n') out += '\n';
  }
  if (!health_text.empty()) {
    out += "Health & diagnosis:\n";
    out += health_text;
    if (health_text.back() != '\n') out += '\n';
  }
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
  // Embed the engine's own time-series JSON as a sub-document so the
  // artifact round-trips through the same parser as the property.
  json::Value series;
  if (json::Parse(lsm::TimeSeriesToJson(sample_interval_us, 0, timeseries),
                  &series)
          .ok()) {
    doc["timeseries"] = std::move(series);
  }
  // The offline-analyzer documents ride along so one artifact carries
  // the whole run: throughput, telemetry, IO breakdown, miss-ratio curve.
  json::Value io_analysis;
  if (!io_analysis_json.empty() &&
      json::Parse(io_analysis_json, &io_analysis).ok()) {
    doc["io_analysis"] = std::move(io_analysis);
  }
  json::Value cache_sim;
  if (!cache_sim_json.empty() &&
      json::Parse(cache_sim_json, &cache_sim).ok()) {
    doc["cache_sim"] = std::move(cache_sim);
  }
  json::Value span_attr;
  if (!span_attribution_json.empty() &&
      json::Parse(span_attribution_json, &span_attr).ok()) {
    doc["span_attribution"] = std::move(span_attr);
  }
  json::Value health;
  if (!health_json.empty() && json::Parse(health_json, &health).ok()) {
    doc["health"] = std::move(health);
  }
  return json::Value(std::move(doc)).Dump(2);
}

namespace {

// Pull "P99: <x>" and "Average: <x>" out of a histogram block.
void ParseHistogramBlock(const std::vector<std::string>& lines, size_t start,
                         double* p99, double* avg) {
  for (size_t i = start; i < lines.size() && i < start + 4; i++) {
    const std::string& line = lines[i];
    // Stop at the next histogram header so this block's numbers are not
    // overwritten by the following one's.
    if (line.find("Microseconds per") != std::string::npos) break;
    size_t pos = line.find("P99: ");
    if (pos != std::string::npos) {
      auto v = ParseDouble(line.substr(pos + 5,
                                       line.find(' ', pos + 5) - pos - 5));
      if (v.has_value()) *p99 = *v;
    }
    pos = line.find("Average: ");
    if (pos != std::string::npos) {
      size_t begin = pos + 9;
      size_t end = line.find(' ', begin);
      auto v = ParseDouble(line.substr(begin, end - begin));
      if (v.has_value()) *avg = *v;
    }
  }
}

}  // namespace

std::optional<ParsedReport> ParseReport(const std::string& text) {
  ParsedReport r;
  bool found_throughput = false;
  std::vector<std::string> lines = SplitLines(text);
  for (size_t i = 0; i < lines.size(); i++) {
    const std::string& line = lines[i];
    size_t ops_pos = line.find(" ops/sec");
    if (!found_throughput && ops_pos != std::string::npos &&
        line.find("micros/op") != std::string::npos) {
      // "<workload> : X micros/op Y ops/sec; ..."
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        r.workload = TrimWhitespace(line.substr(0, colon));
      }
      size_t num_begin = line.rfind(' ', ops_pos - 1);
      // ops_pos points at the space before "ops/sec"; the number sits
      // between num_begin and ops_pos.
      size_t mid = line.find("micros/op");
      size_t begin = mid + strlen("micros/op");
      auto v = ParseDouble(TrimWhitespace(
          line.substr(begin, ops_pos - begin)));
      (void)num_begin;
      if (v.has_value()) {
        r.ops_per_sec = *v;
        found_throughput = true;
      }
    } else if (line.find("Microseconds per write:") != std::string::npos) {
      ParseHistogramBlock(lines, i + 1, &r.p99_write_us, &r.avg_write_us);
    } else if (line.find("Microseconds per read:") != std::string::npos) {
      ParseHistogramBlock(lines, i + 1, &r.p99_read_us, &r.avg_read_us);
    }
  }
  if (!found_throughput) return std::nullopt;
  return r;
}

}  // namespace elmo::bench
