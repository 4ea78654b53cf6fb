#include "monitor/diagnosis.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace elmo::monitor {

namespace {

double Round3(double v) {
  const double shifted = v * 1000.0 + (v >= 0 ? 0.5 : -0.5);
  return static_cast<double>(static_cast<int64_t>(shifted)) / 1000.0;
}

std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

double MiB(uint64_t bytes) {
  return static_cast<double>(bytes) / (1 << 20);
}

bool HasAnomaly(const std::vector<AnomalyEvent>& anomalies, Metric m,
                int direction, const AnomalyEvent** found = nullptr) {
  // Latest match wins so evidence cites the most recent event.
  for (auto it = anomalies.rbegin(); it != anomalies.rend(); ++it) {
    if (it->metric == m && (direction == 0 || it->direction == direction)) {
      if (found != nullptr) *found = &*it;
      return true;
    }
  }
  return false;
}

// Mean span-phase share of foreground time over the recent window; the
// denominator is the sampled interval, so shares are comparable across
// ticks.
double MeanShare(const std::vector<lsm::IntervalSample>& recent,
                 uint64_t lsm::IntervalSample::*field) {
  if (recent.empty()) return 0;
  double sum = 0;
  int n = 0;
  for (const auto& s : recent) {
    if (s.interval_us == 0) continue;
    sum += std::min(1.0, static_cast<double>(s.*field) /
                             static_cast<double>(s.interval_us));
    n++;
  }
  return n > 0 ? sum / n : 0;
}

}  // namespace

std::string Diagnosis::ToString() const {
  std::string out =
      Fmt("[%.2f] %s: %s — %s", severity, rule.c_str(), symptom.c_str(),
          cause.c_str());
  for (const std::string& e : evidence) {
    out += "\n    evidence: ";
    out += e;
  }
  if (!suggested_options.empty()) {
    out += "\n    suggest: ";
    for (size_t i = 0; i < suggested_options.size(); i++) {
      if (i > 0) out += ", ";
      out += suggested_options[i];
    }
  }
  return out;
}

json::Object Diagnosis::ToJson() const {
  json::Object o;
  o["rule"] = rule;
  o["severity"] = Round3(severity);
  o["symptom"] = symptom;
  o["cause"] = cause;
  json::Array ev;
  for (const std::string& e : evidence) ev.emplace_back(e);
  o["evidence"] = std::move(ev);
  json::Array sugg;
  for (const std::string& s : suggested_options) sugg.emplace_back(s);
  o["suggested_options"] = std::move(sugg);
  return o;
}

std::vector<Diagnosis> Diagnose(
    const std::vector<lsm::IntervalSample>& recent,
    const std::vector<AnomalyEvent>& anomalies, const lsm::Options& info) {
  std::vector<Diagnosis> out;
  if (recent.empty()) return out;
  const lsm::IntervalSample& s = recent.back();

  const double stall = s.stall_fraction;
  const double flush_share =
      MeanShare(recent, &lsm::IntervalSample::span_memtable_us);
  const double wal_share =
      MeanShare(recent, &lsm::IntervalSample::span_wal_sync_us);
  const double probe_share =
      MeanShare(recent, &lsm::IntervalSample::span_sst_probe_us);

  // --- background_error: the engine is degraded; everything else is
  // secondary until the error clears (or the DB is reopened).
  if (s.bg_error_severity > 0) {
    Diagnosis d;
    d.rule = "background_error";
    // soft=1 -> 0.8, hard=2 -> 0.9, fatal=3 -> 1.0.
    d.severity = std::min(1.0, 0.7 + 0.1 * s.bg_error_severity);
    d.symptom = s.bg_error_severity >= 3
                    ? "fatal background error: reopen required"
                    : (s.bg_error_severity == 2
                           ? "read-only degraded: writes fail fast"
                           : "writes stalled pending auto-resume");
    d.cause = "a background failure (WAL/flush/compaction/manifest) put "
              "the engine in an error state";
    d.evidence.push_back(Fmt("bg_error_severity %d", s.bg_error_severity));
    d.evidence.push_back(
        Fmt("interval bg errors %llu, resume failures %llu",
            (unsigned long long)s.bg_errors,
            (unsigned long long)s.auto_resume_failures));
    d.evidence.push_back(Fmt("stall fraction %.3f", Round3(stall)));
    d.suggested_options = {};
    out.push_back(std::move(d));
  }

  // --- auto_resume: recovery churn — the engine healed itself (possibly
  // repeatedly), so throughput dips trace to error episodes, not tuning.
  if (s.bg_error_severity == 0 &&
      (s.auto_resume_successes > 0 || s.auto_resume_failures > 0)) {
    Diagnosis d;
    d.rule = "auto_resume";
    d.severity =
        std::min(0.6, 0.25 + 0.05 * static_cast<double>(
                                        s.auto_resume_successes +
                                        s.auto_resume_failures));
    d.symptom = "transient background errors auto-recovered";
    d.cause = "the env returned retryable failures; auto-resume re-synced "
              "and rescheduled the affected work";
    d.evidence.push_back(
        Fmt("interval resume successes %llu, failures %llu",
            (unsigned long long)s.auto_resume_successes,
            (unsigned long long)s.auto_resume_failures));
    d.evidence.push_back(Fmt("interval bg errors %llu",
                             (unsigned long long)s.bg_errors));
    d.suggested_options = {};
    out.push_back(std::move(d));
  }

  // --- l0_compaction_backlog: L0 file pileup throttling the write path.
  {
    const int l0 = s.l0_files;
    const int slowdown = info.level0_slowdown_writes_trigger;
    const int stop = info.level0_stop_writes_trigger;
    double sev = 0;
    if (l0 >= stop) {
      sev = 1.0;
    } else if (l0 >= slowdown) {
      sev = 0.75 + 0.25 * static_cast<double>(l0 - slowdown) /
                       std::max(1, stop - slowdown);
    } else if (l0 >= slowdown / 2 && stall > 0.05) {
      sev = 0.5 + std::min(0.2, stall);
    }
    if (sev > 0) {
      Diagnosis d;
      d.rule = "l0_compaction_backlog";
      d.severity = std::min(1.0, sev);
      d.symptom = l0 >= slowdown
                      ? "write throughput throttled by L0 stall"
                      : "write path slowed by L0 pressure";
      d.cause = "L0 files accumulating faster than compaction drains them";
      d.evidence.push_back(
          Fmt("l0 files %d vs slowdown trigger %d / stop trigger %d", l0,
              slowdown, stop));
      d.evidence.push_back(Fmt("stall fraction %.3f", Round3(stall)));
      d.evidence.push_back(Fmt("pending compaction %.1f MiB",
                               MiB(s.pending_compaction_bytes)));
      if (flush_share > 0.05) {
        d.evidence.push_back(
            Fmt("memtable span share %.0f%%", flush_share * 100));
      }
      d.suggested_options = {"max_background_jobs",
                             "level0_slowdown_writes_trigger",
                             "write_buffer_size"};
      out.push_back(std::move(d));
    }
  }

  // --- memtable_stall: immutable memtables backed up behind flush.
  if (info.max_write_buffer_number > 1 &&
      s.imm_count >= info.max_write_buffer_number - 1) {
    Diagnosis d;
    d.rule = "memtable_stall";
    d.severity = std::min(1.0, 0.6 + stall);
    d.symptom = "writes waiting on memtable flush";
    d.cause = "all memtable slots full; flush cannot keep up";
    d.evidence.push_back(Fmt("immutable memtables %d of %d slots",
                             s.imm_count, info.max_write_buffer_number));
    d.evidence.push_back(
        Fmt("memtable bytes %.1f MiB (buffer %.1f MiB)",
            MiB(s.memtable_bytes), MiB(info.write_buffer_size)));
    d.evidence.push_back(Fmt("stall fraction %.3f", Round3(stall)));
    d.suggested_options = {"max_write_buffer_number", "write_buffer_size",
                           "max_background_flushes"};
    out.push_back(std::move(d));
  }

  // --- compaction_debt_growth: debt trending up toward the soft limit.
  {
    const AnomalyEvent* trend = nullptr;
    const bool trending =
        HasAnomaly(anomalies, Metric::kCompactionDebt, 1, &trend);
    const double soft =
        static_cast<double>(info.soft_pending_compaction_bytes_limit);
    const double frac =
        soft > 0 ? static_cast<double>(s.pending_compaction_bytes) / soft : 0;
    if (trending || frac > 0.5) {
      Diagnosis d;
      d.rule = "compaction_debt_growth";
      d.severity = std::min(1.0, std::max(frac, trending ? 0.45 : 0.0));
      d.symptom = "compaction debt rising";
      d.cause = "background compaction bandwidth below ingest rate";
      d.evidence.push_back(
          Fmt("pending compaction %.1f MiB (%.0f%% of soft limit)",
              MiB(s.pending_compaction_bytes), frac * 100));
      if (trend != nullptr) {
        d.evidence.push_back("detector: " + trend->ToString());
      }
      d.evidence.push_back(
          Fmt("max_background_jobs %d", info.max_background_jobs));
      d.suggested_options = {"max_background_jobs",
                             "level0_file_num_compaction_trigger",
                             "max_bytes_for_level_base"};
      out.push_back(std::move(d));
    }
  }

  // --- cache_thrash: block cache too small for the working set.
  {
    const uint64_t lookups = s.block_cache_hits + s.block_cache_misses;
    const double hit_ratio =
        lookups > 0 ? static_cast<double>(s.block_cache_hits) / lookups : 1.0;
    const AnomalyEvent* drop = nullptr;
    const bool dropped =
        HasAnomaly(anomalies, Metric::kCacheHitRatio, -1, &drop);
    const bool full =
        info.block_cache_size > 0 &&
        s.block_cache_usage >= info.block_cache_size -
                                   info.block_cache_size / 20;  // >= 95%
    if (lookups >= 16 && (dropped || (hit_ratio < 0.5 && full))) {
      Diagnosis d;
      d.rule = "cache_thrash";
      d.severity = std::min(1.0, 0.4 + (1.0 - hit_ratio) * 0.4);
      d.symptom = "block cache miss ratio high";
      d.cause = "working set exceeds block cache capacity";
      d.evidence.push_back(Fmt("interval hit ratio %.3f (%llu lookups)",
                               Round3(hit_ratio),
                               (unsigned long long)lookups));
      d.evidence.push_back(Fmt("cache usage %.1f of %.1f MiB",
                               MiB(s.block_cache_usage),
                               MiB(info.block_cache_size)));
      if (drop != nullptr) {
        d.evidence.push_back("detector: " + drop->ToString());
      }
      d.suggested_options = {"block_cache_size", "cache_index_and_filter_blocks",
                             "bloom_filter_bits_per_key"};
      out.push_back(std::move(d));
    }
  }

  // --- wal_sync_bound: foreground time dominated by WAL syncs.
  if (wal_share > 0.30) {
    Diagnosis d;
    d.rule = "wal_sync_bound";
    d.severity = std::min(1.0, wal_share);
    d.symptom = "write latency dominated by WAL syncs";
    d.cause = "every write paying a synchronous journal flush";
    d.evidence.push_back(
        Fmt("wal sync span share %.0f%% of engine time", wal_share * 100));
    d.evidence.push_back(Fmt("interval p99 write %.1f us", s.p99_write_us));
    d.suggested_options = {"wal_bytes_per_sync", "enable_pipelined_write",
                           "bytes_per_sync"};
    out.push_back(std::move(d));
  }

  // --- read_amplification: reads probing too many files per lookup.
  if (probe_share > 0.35 &&
      s.l0_files > info.level0_file_num_compaction_trigger) {
    Diagnosis d;
    d.rule = "read_amplification";
    d.severity = std::min(1.0, 0.4 + probe_share * 0.4);
    d.symptom = "read latency dominated by SST probes";
    d.cause = "many L0 files probed per lookup and no bloom filters to "
              "short-circuit misses";
    d.evidence.push_back(
        Fmt("sst probe span share %.0f%%", probe_share * 100));
    d.evidence.push_back(Fmt("l0 files %d (compaction trigger %d)",
                             s.l0_files,
                             info.level0_file_num_compaction_trigger));
    d.evidence.push_back(Fmt("bloom_filter_bits_per_key %d",
                             info.bloom_filter_bits_per_key));
    d.suggested_options = {"bloom_filter_bits_per_key",
                           "level0_file_num_compaction_trigger",
                           "block_cache_size"};
    out.push_back(std::move(d));
  }

  // --- workload_phase_shift: informational; the tuner should re-evaluate.
  {
    const AnomalyEvent* shift = nullptr;
    for (auto it = anomalies.rbegin(); it != anomalies.rend(); ++it) {
      if (it->phase_shift) {
        shift = &*it;
        break;
      }
    }
    if (shift != nullptr) {
      Diagnosis d;
      d.rule = "workload_phase_shift";
      d.severity = 0.35;
      d.symptom = "workload mix changed";
      d.cause = "operation mix shifted; current tuning may no longer fit";
      d.evidence.push_back("detector: " + shift->ToString());
      d.evidence.push_back(Fmt("interval mix: %llu writes, %llu gets, "
                               "%llu seeks",
                               (unsigned long long)s.writes,
                               (unsigned long long)s.gets,
                               (unsigned long long)s.seeks));
      d.suggested_options = {};
      out.push_back(std::move(d));
    }
  }

  // --- throughput_regression: fallback when throughput fell but no
  // structural rule above claimed it.
  {
    const AnomalyEvent* drop = nullptr;
    if (HasAnomaly(anomalies, Metric::kOpsPerSec, -1, &drop) && out.empty()) {
      Diagnosis d;
      d.rule = "throughput_regression";
      d.severity = 0.5;
      d.symptom = "throughput dropped";
      d.cause = "no structural cause identified from engine state";
      d.evidence.push_back("detector: " + drop->ToString());
      d.suggested_options = {};
      out.push_back(std::move(d));
    }
  }

  std::sort(out.begin(), out.end(), [](const Diagnosis& a, const Diagnosis& b) {
    if (a.severity != b.severity) return a.severity > b.severity;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace elmo::monitor
