#include "monitor/detector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace elmo::monitor {

namespace {

// Round to three decimals so serialized events are byte-deterministic
// across libm implementations.
double Round3(double v) {
  const double shifted = v * 1000.0 + (v >= 0 ? 0.5 : -0.5);
  return static_cast<double>(static_cast<int64_t>(shifted)) / 1000.0;
}

bool IsShareMetric(Metric m) {
  switch (m) {
    case Metric::kStallFraction:
    case Metric::kCacheHitRatio:
    case Metric::kWalSyncShare:
    case Metric::kWriteShare:
    case Metric::kScanShare:
      return true;
    default:
      return false;
  }
}

bool IsPhaseMetric(Metric m) {
  return m == Metric::kWriteShare || m == Metric::kScanShare;
}

struct WindowStats {
  double mean = 0;
  double stddev = 0;
};

WindowStats ComputeStats(const std::deque<double>& w) {
  WindowStats st;
  if (w.empty()) return st;
  double sum = 0;
  for (double v : w) sum += v;
  st.mean = sum / static_cast<double>(w.size());
  double var = 0;
  for (double v : w) var += (v - st.mean) * (v - st.mean);
  var /= static_cast<double>(w.size());
  st.stddev = std::sqrt(var);
  return st;
}

}  // namespace

const char* MetricName(Metric m) {
  switch (m) {
    case Metric::kOpsPerSec: return "ops_per_sec";
    case Metric::kStallFraction: return "stall_fraction";
    case Metric::kCompactionDebt: return "compaction_debt";
    case Metric::kCacheHitRatio: return "cache_hit_ratio";
    case Metric::kWalSyncShare: return "wal_sync_share";
    case Metric::kWriteShare: return "write_share";
    case Metric::kScanShare: return "scan_share";
    case Metric::kMetricMax: break;
  }
  return "unknown";
}

std::string AnomalyEvent::ToString() const {
  char buf[256];
  snprintf(buf, sizeof(buf), "[%llu us] %s %s %s: %.3f -> %.3f (z=%.1f)%s",
           (unsigned long long)ts_us, MetricName(metric),
           kind == AnomalyKind::kTrend ? "trend" : "level-shift",
           direction > 0 ? "up" : "down", Round3(before), Round3(after),
           Round3(zscore), phase_shift ? " [phase shift]" : "");
  return buf;
}

json::Object AnomalyEvent::ToJson() const {
  json::Object o;
  o["ts_us"] = static_cast<int64_t>(ts_us);
  o["metric"] = MetricName(metric);
  o["kind"] = kind == AnomalyKind::kTrend ? "trend" : "level_shift";
  o["direction"] = direction;
  o["phase_shift"] = phase_shift;
  o["before"] = Round3(before);
  o["after"] = Round3(after);
  o["zscore"] = Round3(zscore);
  return o;
}

ChangepointDetector::ChangepointDetector(const DetectorConfig& config)
    : config_(config) {}

bool ChangepointDetector::ExtractMetric(const lsm::IntervalSample& s,
                                        Metric m, double* value) {
  const double interval = static_cast<double>(s.interval_us);
  const uint64_t fg_ops = s.ops + s.seeks;
  switch (m) {
    case Metric::kOpsPerSec:
      if (interval <= 0) return false;
      *value = static_cast<double>(fg_ops) * 1e6 / interval;
      return true;
    case Metric::kStallFraction:
      *value = s.stall_fraction;
      return true;
    case Metric::kCompactionDebt:
      *value = static_cast<double>(s.pending_compaction_bytes);
      return true;
    case Metric::kCacheHitRatio: {
      const uint64_t lookups = s.block_cache_hits + s.block_cache_misses;
      if (lookups == 0) return false;
      *value = static_cast<double>(s.block_cache_hits) /
               static_cast<double>(lookups);
      return true;
    }
    case Metric::kWalSyncShare:
      if (interval <= 0) return false;
      *value = std::min(
          1.0, static_cast<double>(s.span_wal_sync_us) / interval);
      return true;
    case Metric::kWriteShare:
      if (fg_ops == 0) return false;
      *value = static_cast<double>(s.writes) / static_cast<double>(fg_ops);
      return true;
    case Metric::kScanShare:
      if (fg_ops == 0) return false;
      *value = static_cast<double>(s.seeks) / static_cast<double>(fg_ops);
      return true;
    case Metric::kMetricMax:
      break;
  }
  return false;
}

std::vector<AnomalyEvent> ChangepointDetector::Observe(
    const lsm::IntervalSample& s) {
  std::vector<AnomalyEvent> out;
  ticks_++;
  for (int i = 0; i < static_cast<int>(Metric::kMetricMax); i++) {
    const Metric m = static_cast<Metric>(i);
    double value = 0;
    if (!ExtractMetric(s, m, &value)) continue;
    ObserveMetric(m, value, s.ts_us, &out);
    if (m == Metric::kCompactionDebt) {
      ObserveTrend(m, value, s.ts_us, &out);
    }
  }
  return out;
}

void ChangepointDetector::ObserveMetric(Metric m, double value,
                                        uint64_t ts_us,
                                        std::vector<AnomalyEvent>* out) {
  MetricState& st = state_[static_cast<int>(m)];

  if (st.cooldown_left > 0) {
    // Re-learning: accept the value into the window unconditionally.
    st.cooldown_left--;
    st.window.push_back(value);
    while (static_cast<int>(st.window.size()) > config_.window) {
      st.window.pop_front();
    }
    return;
  }

  if (static_cast<int>(st.window.size()) < config_.min_history) {
    st.window.push_back(value);
    return;
  }

  const WindowStats ws = ComputeStats(st.window);
  // Deviation = clears BOTH the z-score gate and the practical gate
  // (max of the two thresholds).
  const double min_delta =
      IsShareMetric(m)
          ? config_.share_abs_threshold
          : config_.rel_threshold *
                std::max(std::fabs(ws.mean),
                         m == Metric::kOpsPerSec ? config_.ops_per_sec_floor
                         : m == Metric::kCompactionDebt ? config_.debt_floor
                                                        : 1.0);
  const double threshold =
      std::max(config_.z_threshold * ws.stddev, min_delta);
  const double delta = value - ws.mean;
  const int dir = delta > 0 ? 1 : -1;

  if (std::fabs(delta) <= threshold) {
    // Back to normal: flush any unconfirmed deviation into the window.
    for (double p : st.pending) st.window.push_back(p);
    st.pending.clear();
    st.pending_direction = 0;
    st.window.push_back(value);
    while (static_cast<int>(st.window.size()) > config_.window) {
      st.window.pop_front();
    }
    return;
  }

  if (st.pending_direction != 0 && st.pending_direction != dir) {
    st.pending.clear();
  }
  st.pending_direction = dir;
  st.pending.push_back(value);

  if (static_cast<int>(st.pending.size()) < config_.confirm) return;

  AnomalyEvent e;
  e.ts_us = ts_us;
  e.metric = m;
  e.kind = AnomalyKind::kLevelShift;
  e.direction = dir;
  e.phase_shift = IsPhaseMetric(m);
  e.before = ws.mean;
  e.after = value;
  e.zscore = ws.stddev > 0 ? std::fabs(delta) / ws.stddev : 0;
  out->push_back(e);

  // Reseed the reference window from the confirmed post-change values
  // and go quiet for `cooldown` ticks.
  st.window.assign(st.pending.begin(), st.pending.end());
  st.pending.clear();
  st.pending_direction = 0;
  st.cooldown_left = config_.cooldown;
}

void ChangepointDetector::ObserveTrend(Metric m, double value,
                                       uint64_t ts_us,
                                       std::vector<AnomalyEvent>* out) {
  MetricState& st = state_[static_cast<int>(m)];
  if (!st.has_last) {
    st.has_last = true;
    st.last_value = value;
    st.trend_start = value;
    return;
  }
  if (value > st.last_value) {
    if (st.rises == 0) st.trend_start = st.last_value;
    st.rises++;
  } else {
    st.rises = 0;
  }
  st.last_value = value;
  if (st.rises < config_.trend_confirm) return;
  const double base = std::max(st.trend_start, config_.debt_floor);
  if (value < base * config_.trend_min_ratio) return;

  AnomalyEvent e;
  e.ts_us = ts_us;
  e.metric = m;
  e.kind = AnomalyKind::kTrend;
  e.direction = 1;
  e.phase_shift = false;
  e.before = st.trend_start;
  e.after = value;
  e.zscore = 0;
  out->push_back(e);
  st.rises = 0;
  st.trend_start = value;
}

std::vector<AnomalyEvent> DetectSeries(
    const std::vector<lsm::IntervalSample>& samples,
    const DetectorConfig& config) {
  ChangepointDetector det(config);
  std::vector<AnomalyEvent> all;
  for (const lsm::IntervalSample& s : samples) {
    std::vector<AnomalyEvent> e = det.Observe(s);
    all.insert(all.end(), e.begin(), e.end());
  }
  return all;
}

}  // namespace elmo::monitor
