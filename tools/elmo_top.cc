// elmo_top: terminal dashboard over a DB's recorded telemetry — the
// engine's JSONL info LOG (full sampler_tick events), a timeseries /
// BenchResult JSON, or a Prometheus metrics export. Point it at a
// running DB's directory and it follows the live LOG; `--once` renders
// a single frame (CI / scripting), `--json` emits the final health
// report instead of the dashboard.
//
//   elmo_top [--once] [--json] [--interval=ms] [--frames=N] <path>
//     <path>: DB directory (reads <dir>/LOG, falling back to
//             <dir>/metrics.prom), JSONL LOG file, timeseries or
//             BenchResult JSON, or a Prometheus .prom export.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "env/env.h"
#include "monitor/health_monitor.h"
#include "monitor/offline.h"
#include "util/status.h"

namespace {

using elmo::Env;
using elmo::Status;
using elmo::lsm::IntervalSample;
using elmo::monitor::AnalyzeHealthSeries;
using elmo::monitor::AnomalyEvent;
using elmo::monitor::Diagnosis;
using elmo::monitor::HealthReport;
using elmo::monitor::HealthStatusName;
using elmo::monitor::HealthTimeline;
using elmo::monitor::LoadTelemetry;
using elmo::monitor::MonitorConfig;
using elmo::monitor::OptionsChangeEvent;

void Usage() {
  fprintf(stderr,
          "usage: elmo_top [--once] [--json] [--interval=ms] [--frames=N] "
          "<db_dir|LOG|timeseries.json|metrics.prom>\n"
          "  --once          render one frame and exit\n"
          "  --json          print the final health report as JSON\n"
          "  --interval=ms   refresh cadence in live mode (default 1000)\n"
          "  --frames=N      stop after N live frames (default: forever)\n");
}

std::string HumanBytes(double v) {
  char buf[32];
  const char* unit = "B";
  if (v >= (1ull << 30)) {
    v /= (1ull << 30);
    unit = "GiB";
  } else if (v >= (1ull << 20)) {
    v /= (1ull << 20);
    unit = "MiB";
  } else if (v >= (1ull << 10)) {
    v /= (1ull << 10);
    unit = "KiB";
  }
  snprintf(buf, sizeof(buf), "%.1f %s", v, unit);
  return buf;
}

std::string HumanRate(double v) {
  char buf[32];
  if (v >= 1e6) {
    snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

// Degraded-state banner shared by both dashboards. Severity follows
// lsm::ErrorSeverity: 1 soft (writes stalled, auto-resume pending),
// 2 hard (read-only degraded), 3 fatal (reopen required).
std::string DegradedBanner(int severity, const std::string& detail) {
  if (severity <= 0) return "";
  const char* what =
      severity >= 3
          ? "FATAL background error — reopen required"
          : (severity == 2
                 ? "DEGRADED (hard): writes fail fast, reads serving"
                 : "DEGRADED (soft): writes stalled pending auto-resume");
  std::string out = "!! ";
  out += what;
  if (!detail.empty()) out += "   " + detail;
  out += "\n";
  return out;
}

// ASCII sparkline over the last `width` values (min..max scaled to a
// 8-step ramp). Pure ASCII so it survives any terminal/CI log.
std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char kRamp[] = " .:-=+*#";
  const size_t n = values.size();
  if (n == 0) return "";
  const size_t start = n > width ? n - width : 0;
  double lo = values[start], hi = values[start];
  for (size_t i = start; i < n; i++) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (size_t i = start; i < n; i++) {
    const double span = hi - lo;
    const int step =
        span <= 0 ? 4
                  : static_cast<int>((values[i] - lo) / span * 7.0 + 0.5);
    out += kRamp[step < 0 ? 0 : (step > 7 ? 7 : step)];
  }
  return out;
}

// ---- series dashboard (LOG / timeseries / BenchResult sources) ----

std::string RenderSeriesFrame(const std::string& source,
                              const std::vector<IntervalSample>& samples,
                              const HealthTimeline& timeline,
                              const std::vector<OptionsChangeEvent>& changes) {
  std::string out;
  char buf[256];
  const IntervalSample& last = samples.back();

  snprintf(buf, sizeof(buf),
           "elmo_top — %s\nticks: %zu   engine clock: %.2fs   interval: "
           "%.0f ms\n",
           source.c_str(), samples.size(), last.ts_us / 1e6,
           last.interval_us / 1e3);
  out += buf;

  {
    std::string detail;
    if (last.auto_resume_successes + last.auto_resume_failures > 0) {
      snprintf(buf, sizeof(buf), "resume attempts this tick: %llu ok, %llu failed",
               static_cast<unsigned long long>(last.auto_resume_successes),
               static_cast<unsigned long long>(last.auto_resume_failures));
      detail = buf;
    }
    out += DegradedBanner(last.bg_error_severity, detail);
  }

  const HealthReport& hr = timeline.final_report;
  snprintf(buf, sizeof(buf),
           "health: %s   anomalies: %zu   diagnoses: %zu\n\n",
           HealthStatusName(hr.status), hr.anomalies.size(),
           hr.diagnoses.size());
  out += buf;

  std::vector<double> ops;
  ops.reserve(samples.size());
  for (const IntervalSample& s : samples) ops.push_back(s.ops_per_sec);
  snprintf(buf, sizeof(buf), "ops/s %10s  [%s]\n",
           HumanRate(last.ops_per_sec).c_str(),
           Sparkline(ops, 48).c_str());
  out += buf;

  snprintf(buf, sizeof(buf),
           "stall %9.1f%%  p99w %8.1fus  p99r %8.1fus  cache hit %5.1f%%\n",
           last.stall_fraction * 100.0, last.p99_write_us, last.p99_get_us,
           last.block_cache_hits + last.block_cache_misses > 0
               ? 100.0 * last.block_cache_hits /
                     (last.block_cache_hits + last.block_cache_misses)
               : 0.0);
  out += buf;

  snprintf(buf, sizeof(buf),
           "memtable %s (imm %d)   debt %s   cache %s\n",
           HumanBytes(static_cast<double>(last.memtable_bytes)).c_str(),
           last.imm_count,
           HumanBytes(static_cast<double>(last.pending_compaction_bytes))
               .c_str(),
           HumanBytes(static_cast<double>(last.block_cache_usage)).c_str());
  out += buf;

  out += "levels:";
  for (int l = 0; l < last.num_levels && l < elmo::lsm::DbStats::kMaxLevels;
       l++) {
    snprintf(buf, sizeof(buf), "  L%d:%d", l, last.level_files[l]);
    out += buf;
  }
  out += "\n";

  if (!hr.anomalies.empty()) {
    out += "\nrecent anomalies:\n";
    const size_t show = std::min<size_t>(hr.anomalies.size(), 6);
    for (size_t i = hr.anomalies.size() - show; i < hr.anomalies.size();
         i++) {
      out += "  " + hr.anomalies[i].ToString() + "\n";
    }
  }
  if (!changes.empty()) {
    // Live SetOptions batches (manual or online-tuner), newest last.
    out += "\nrecent option changes:\n";
    const size_t show = std::min<size_t>(changes.size(), 6);
    for (size_t i = changes.size() - show; i < changes.size(); i++) {
      out += "  " + changes[i].ToString() + "\n";
    }
  }
  if (!hr.diagnoses.empty()) {
    out += "\ndiagnoses:\n";
    for (size_t i = 0; i < hr.diagnoses.size() && i < 4; i++) {
      const Diagnosis& d = hr.diagnoses[i];
      snprintf(buf, sizeof(buf), "  %zu. %s (%.2f): %s\n", i + 1,
               d.rule.c_str(), d.severity, d.symptom.c_str());
      out += buf;
      if (!d.suggested_options.empty()) {
        out += "     revisit:";
        for (const std::string& opt : d.suggested_options) {
          out += " " + opt;
        }
        out += "\n";
      }
    }
  }
  return out;
}

// ---- prometheus dashboard (metrics.prom sources) ----

// Minimal text-exposition parser: "name{labels} value" / "name value",
// comments skipped. Keys keep their label block so series stay distinct.
bool ParsePrometheus(const std::string& text,
                     std::map<std::string, double>* out) {
  size_t pos = 0;
  size_t parsed = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    char* parse_end = nullptr;
    const double value = strtod(line.c_str() + space + 1, &parse_end);
    if (parse_end == line.c_str() + space + 1) continue;
    (*out)[line.substr(0, space)] = value;
    parsed++;
  }
  return parsed > 0;
}

double PromValue(const std::map<std::string, double>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

std::string RenderPromFrame(const std::string& source,
                            const std::map<std::string, double>& cur,
                            const std::map<std::string, double>& prev,
                            double frame_seconds) {
  std::string out;
  char buf[256];
  snprintf(buf, sizeof(buf), "elmo_top — %s\nengine clock: %.2fs\n",
           source.c_str(), PromValue(cur, "elmo_engine_clock_us") / 1e6);
  out += buf;

  const int status = static_cast<int>(PromValue(cur, "elmo_health_status"));
  std::string top_rule;
  double top_severity = 0;
  for (const auto& [key, value] : cur) {
    if (key.compare(0, 31, "elmo_health_top_severity{rule=\"") == 0) {
      const size_t close = key.find('"', 31);
      top_rule = key.substr(31, close - 31);
      top_severity = value;
    }
  }
  {
    // elmo_background_error_state{source="...",kind="..."} is exported
    // (value 1) only while an error is active; surface its labels.
    std::string detail;
    for (const auto& [key, value] : cur) {
      if (key.compare(0, 28, "elmo_background_error_state{") == 0 &&
          value > 0) {
        detail = key.substr(27);  // keep the {source=...,kind=...} block
      }
    }
    out += DegradedBanner(
        static_cast<int>(PromValue(cur, "elmo_background_error_severity")),
        detail);
  }

  snprintf(buf, sizeof(buf), "health: %s",
           HealthStatusName(static_cast<elmo::monitor::HealthStatus>(
               status < 0 ? 0 : (status > 2 ? 2 : status))));
  out += buf;
  if (!top_rule.empty()) {
    snprintf(buf, sizeof(buf), "   top: %s (%.2f)", top_rule.c_str(),
             top_severity);
    out += buf;
  }
  out += "\n\n";

  const double ops_now =
      PromValue(cur, "elmo_writes_total") +
      PromValue(cur, "elmo_get_hits_total") +
      PromValue(cur, "elmo_get_misses_total") +
      PromValue(cur, "elmo_seeks_total");
  if (!prev.empty() && frame_seconds > 0) {
    const double ops_before = PromValue(prev, "elmo_writes_total") +
                              PromValue(prev, "elmo_get_hits_total") +
                              PromValue(prev, "elmo_get_misses_total") +
                              PromValue(prev, "elmo_seeks_total");
    snprintf(buf, sizeof(buf), "ops/s %10s   (counter delta over %.1fs)\n",
             HumanRate((ops_now - ops_before) / frame_seconds).c_str(),
             frame_seconds);
    out += buf;
  } else {
    snprintf(buf, sizeof(buf), "ops total %s\n", HumanRate(ops_now).c_str());
    out += buf;
  }

  snprintf(buf, sizeof(buf),
           "stall %ss   flushes %.0f   compactions %.0f\n",
           HumanRate(PromValue(cur, "elmo_write_stall_micros_total") / 1e6)
               .c_str(),
           PromValue(cur, "elmo_flushes_total"),
           PromValue(cur, "elmo_compactions_total"));
  out += buf;
  snprintf(buf, sizeof(buf), "memtable %s (imm %.0f)   debt %s   cache %s\n",
           HumanBytes(PromValue(cur, "elmo_memtable_bytes")).c_str(),
           PromValue(cur, "elmo_immutable_memtables"),
           HumanBytes(PromValue(cur, "elmo_pending_compaction_bytes"))
               .c_str(),
           HumanBytes(PromValue(cur, "elmo_block_cache_usage_bytes"))
               .c_str());
  out += buf;

  out += "levels:";
  for (int l = 0; l < elmo::lsm::DbStats::kMaxLevels; l++) {
    snprintf(buf, sizeof(buf), "elmo_level_files{level=\"%d\"}", l);
    auto it = cur.find(buf);
    if (it == cur.end()) break;
    snprintf(buf, sizeof(buf), "  L%d:%.0f", l, it->second);
    out += buf;
  }
  out += "\n";

  snprintf(buf, sizeof(buf),
           "sampler: retained %.0f, ring dropped %.0f, late ticks %.0f; "
           "log dropped %.0f, log failures %.0f\n",
           PromValue(cur, "elmo_sampler_samples"),
           PromValue(cur, "elmo_sampler_ring_dropped_total"),
           PromValue(cur, "elmo_sampler_late_ticks_total"),
           PromValue(cur, "elmo_info_log_dropped_lines_total"),
           PromValue(cur, "elmo_info_log_write_failures_total"));
  out += buf;
  return out;
}

bool LooksLikePrometheus(const std::string& text) {
  const size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return false;
  return text[first] == '#' || text.compare(first, 5, "elmo_") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  bool as_json = false;
  uint64_t interval_ms = 1000;
  uint64_t max_frames = 0;  // 0 = forever
  std::string path;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg.compare(0, 11, "--interval=") == 0) {
      interval_ms = strtoull(arg.c_str() + 11, nullptr, 10);
      if (interval_ms == 0) interval_ms = 1000;
    } else if (arg.compare(0, 9, "--frames=") == 0) {
      max_frames = strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      fprintf(stderr, "elmo_top: unknown flag %s\n", arg.c_str());
      Usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }

  Env* env = Env::Posix();
  // DB directory convenience: follow its live LOG (or, absent a LOG,
  // its metrics export).
  if (!env->FileExists(path)) {
    if (env->FileExists(path + "/LOG")) {
      path += "/LOG";
    } else if (env->FileExists(path + "/metrics.prom")) {
      path += "/metrics.prom";
    }
  } else if (env->FileExists(path + "/LOG")) {
    path += "/LOG";
  }

  std::map<std::string, double> prev_prom;
  uint64_t frame = 0;
  while (true) {
    std::string text;
    Status s = env->ReadFileToString(path, &text);
    if (!s.ok()) {
      fprintf(stderr, "elmo_top: %s: %s\n", path.c_str(),
              s.ToString().c_str());
      return 1;
    }

    std::string out;
    if (LooksLikePrometheus(text)) {
      std::map<std::string, double> cur;
      if (!ParsePrometheus(text, &cur)) {
        fprintf(stderr, "elmo_top: %s: no parseable metrics\n",
                path.c_str());
        return 1;
      }
      if (as_json) {
        // Machine-readable passthrough of the parsed exposition.
        out = "{\n";
        bool first_kv = true;
        for (const auto& [key, value] : cur) {
          char buf[512];
          snprintf(buf, sizeof(buf), "%s  \"%s\": %.6g",
                   first_kv ? "" : ",\n", key.c_str(), value);
          out += buf;
          first_kv = false;
        }
        out += "\n}\n";
      } else {
        out = RenderPromFrame(path, cur, prev_prom, interval_ms / 1e3);
      }
      prev_prom = std::move(cur);
    } else {
      std::vector<IntervalSample> samples;
      std::vector<OptionsChangeEvent> changes;
      MonitorConfig config;
      s = LoadTelemetry(env, path, &samples, &config.engine, &changes);
      if (!s.ok() || samples.empty()) {
        fprintf(stderr, "elmo_top: %s: %s\n", path.c_str(),
                s.ok() ? "no sampler ticks found" : s.ToString().c_str());
        return 1;
      }
      const HealthTimeline timeline = AnalyzeHealthSeries(samples, config);
      if (as_json) {
        out = elmo::json::Value(timeline.final_report.ToJson()).Dump() + "\n";
      } else {
        out = RenderSeriesFrame(path, samples, timeline, changes);
      }
    }

    if (!once && !as_json && frame > 0) {
      fputs("\x1b[2J\x1b[H", stdout);  // clear + home between live frames
    }
    fputs(out.c_str(), stdout);
    fflush(stdout);

    frame++;
    if (once || as_json) break;
    if (max_frames > 0 && frame >= max_frames) break;
    env->SleepForMicroseconds(interval_ms * 1000);
  }
  return 0;
}
