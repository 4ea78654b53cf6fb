#include "elmo/active_flagger.h"

#include <algorithm>
#include <cstdio>

#include "monitor/detector.h"

namespace elmo::tune {

namespace {

// A candidate must beat the best throughput by this much to be kept...
constexpr double kMinGain = 0.005;
// ...unless it is within kTolerance of it and improves tail latency.
constexpr double kTolerance = 0.01;
// A probe below this fraction of the best throughput aborts.
constexpr double kEarlyAbortFraction = 0.5;

double WorstP99(const bench::BenchResult& r) {
  return std::max(r.p99_write_us(), r.p99_read_us());
}

// Why a run with failed operations cannot be scored; "" when it has none.
std::string ErrorReason(const bench::BenchResult& r) {
  if (r.errors() == 0) return "";
  char buf[160];
  snprintf(buf, sizeof(buf),
           "%llu operations failed (read %llu, write %llu, scan %llu)",
           (unsigned long long)r.errors(), (unsigned long long)r.read_errors,
           (unsigned long long)r.write_errors,
           (unsigned long long)r.scan_errors);
  return buf;
}

}  // namespace

FlaggerDecision ActiveFlagger::Judge(const bench::BenchResult& best,
                                     const bench::BenchResult& candidate) {
  FlaggerDecision d;
  d.reason = ErrorReason(candidate);
  if (!d.reason.empty()) {
    d.reason += "; reverting to the previous configuration";
    return d;
  }
  char buf[256];

  if (candidate.ops_per_sec > best.ops_per_sec * (1.0 + kMinGain)) {
    d.keep = true;
    snprintf(buf, sizeof(buf),
             "throughput improved %.0f -> %.0f ops/sec (+%.1f%%)",
             best.ops_per_sec, candidate.ops_per_sec,
             (candidate.ops_per_sec / best.ops_per_sec - 1.0) * 100);
    d.reason = buf;
    return d;
  }

  const double best_p99 = WorstP99(best);
  const double cand_p99 = WorstP99(candidate);
  if (candidate.ops_per_sec >= best.ops_per_sec * (1.0 - kTolerance) &&
      best_p99 > 0 && cand_p99 < best_p99) {
    d.keep = true;
    snprintf(buf, sizeof(buf),
             "throughput held (%.0f ops/sec) while worst p99 improved "
             "%.2f -> %.2f us",
             candidate.ops_per_sec, best_p99, cand_p99);
    d.reason = buf;
    return d;
  }

  snprintf(buf, sizeof(buf),
           "performance did not improve (%.0f vs %.0f ops/sec, p99 %.2f "
           "vs %.2f us); reverting to the previous configuration",
           candidate.ops_per_sec, best.ops_per_sec, cand_p99, best_p99);
  d.keep = false;
  d.reason = buf;
  return d;
}

ProbeVerdict ActiveFlagger::JudgeProbe(const bench::BenchResult& best,
                                       const bench::BenchResult& probe) {
  ProbeVerdict v;
  v.reason = ErrorReason(probe);
  v.abort = !v.reason.empty();
  if (v.abort || best.ops_per_sec <= 0) return v;
  char buf[256];

  const double floor = best.ops_per_sec * kEarlyAbortFraction;
  if (probe.ops_per_sec < floor) {
    v.abort = true;
    snprintf(buf, sizeof(buf),
             "probe throughput %.0f ops/sec below %.0f%% of best (%.0f)",
             probe.ops_per_sec, kEarlyAbortFraction * 100,
             best.ops_per_sec);
    v.reason = buf;
    return v;
  }

  // Average looked fine — but a probe that started strong and collapsed
  // mid-run hides the collapse in its average. Replay the probe's own
  // time series through the changepoint detector and abort on a
  // confirmed downward throughput shift whose post-shift regime sits
  // below the same floor. A workload phase shift near the collapse
  // exonerates the configuration: mixed-phase workloads legitimately
  // drop throughput when the phase turns.
  if (probe.timeseries.size() < 6) return v;
  const auto events =
      monitor::DetectSeries(probe.timeseries, monitor::DetectorConfig{});
  const monitor::AnomalyEvent* collapse = nullptr;
  for (const auto& e : events) {
    if (e.metric == monitor::Metric::kOpsPerSec &&
        e.kind == monitor::AnomalyKind::kLevelShift && e.direction < 0) {
      collapse = &e;
    }
  }
  if (collapse == nullptr) return v;
  for (const auto& e : events) {
    if (e.phase_shift &&
        (e.ts_us >= collapse->ts_us
             ? e.ts_us - collapse->ts_us
             : collapse->ts_us - e.ts_us) <=
            2 * std::max<uint64_t>(probe.sample_interval_us, 1)) {
      return v;  // collapse explained by a workload phase change
    }
  }
  double tail_sum = 0;
  size_t tail_n = 0;
  for (const auto& s : probe.timeseries) {
    if (s.ts_us >= collapse->ts_us) {
      tail_sum += s.ops_per_sec;
      tail_n++;
    }
  }
  if (tail_n == 0) return v;
  const double tail_mean = tail_sum / static_cast<double>(tail_n);
  if (tail_mean < floor) {
    v.abort = true;
    snprintf(buf, sizeof(buf),
             "mid-probe throughput collapse at t=%.1fs: post-shift mean "
             "%.0f ops/sec below %.0f%% of best (%.0f)",
             collapse->ts_us / 1e6, tail_mean,
             kEarlyAbortFraction * 100, best.ops_per_sec);
    v.reason = buf;
  }
  return v;
}

}  // namespace elmo::tune
