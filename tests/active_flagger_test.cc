#include "elmo/active_flagger.h"

#include <gtest/gtest.h>

#include "lsm/stats_sampler.h"

namespace elmo::tune {
namespace {

bench::BenchResult Result(double ops, double p99w = 10.0,
                          double p99r = 0.0) {
  bench::BenchResult r;
  r.ops_per_sec = ops;
  // Populate histograms so p99 accessors return roughly p99w/p99r.
  if (p99w > 0) {
    for (int i = 0; i < 1000; i++) r.write_micros.Add(p99w);
  }
  if (p99r > 0) {
    for (int i = 0; i < 1000; i++) r.read_micros.Add(p99r);
  }
  return r;
}

TEST(ActiveFlagger, KeepsClearImprovement) {
  auto d = ActiveFlagger::Judge(Result(100000), Result(120000));
  EXPECT_TRUE(d.keep);
  EXPECT_NE(d.reason.find("improved"), std::string::npos);
}

TEST(ActiveFlagger, RevertsRegression) {
  auto d = ActiveFlagger::Judge(Result(100000), Result(80000));
  EXPECT_FALSE(d.keep);
  EXPECT_NE(d.reason.find("reverting"), std::string::npos);
}

TEST(ActiveFlagger, RevertsFlatResult) {
  // Same throughput, same p99: no reason to churn configs.
  auto d = ActiveFlagger::Judge(Result(100000, 10.0), Result(100000, 10.0));
  EXPECT_FALSE(d.keep);
}

TEST(ActiveFlagger, KeepsTailLatencyWinAtFlatThroughput) {
  auto d = ActiveFlagger::Judge(Result(100000, /*p99w=*/50.0),
                         Result(99800, /*p99w=*/20.0));
  EXPECT_TRUE(d.keep);
  EXPECT_NE(d.reason.find("p99"), std::string::npos);
}

TEST(ActiveFlagger, TailWinDoesNotExcuseBigThroughputLoss) {
  auto d = ActiveFlagger::Judge(Result(100000, 50.0), Result(80000, 5.0));
  EXPECT_FALSE(d.keep);
}

TEST(ActiveFlagger, WorstP99ConsidersReads) {
  // Read tail dominates; improving it while writes stay flat counts.
  auto best = Result(100000, 10.0, /*p99r=*/500.0);
  auto cand = Result(99900, 10.0, /*p99r=*/100.0);
  EXPECT_TRUE(ActiveFlagger::Judge(best, cand).keep);
}

TEST(ActiveFlagger, RunWithErrorsIsNeverKept) {
  auto failed = Result(500000, 1.0);
  failed.read_errors = 3;
  auto d = ActiveFlagger::Judge(Result(100000), failed);
  EXPECT_FALSE(d.keep);
  EXPECT_NE(d.reason.find("3 operations failed"), std::string::npos);
  EXPECT_NE(d.reason.find("reverting"), std::string::npos);
}

TEST(ActiveFlagger, ProbeWithErrorsAborts) {
  auto probe = Result(500000);
  probe.write_errors = 1;
  auto v = ActiveFlagger::JudgeProbe(Result(100000), probe);
  EXPECT_TRUE(v.abort);
  EXPECT_NE(v.reason.find("write 1"), std::string::npos);
}

TEST(ActiveFlagger, EarlyAbortOnCollapse) {
  EXPECT_TRUE(ActiveFlagger::JudgeProbe(Result(100000), Result(30000)).abort);
  EXPECT_FALSE(
      ActiveFlagger::JudgeProbe(Result(100000), Result(70000)).abort);
  EXPECT_FALSE(ActiveFlagger::JudgeProbe(Result(0), Result(1)).abort);
}

// Fabricate a probe whose time series runs at `head_rate` ops/s for
// `head` samples, then `tail_rate` for `tail` samples. `scan_tail`
// moves the tail's ops into iterator seeks, which flips the detector's
// scan-share phase metric at the boundary.
bench::BenchResult ProbeWithSeries(double overall, double head_rate,
                                   int head, double tail_rate, int tail,
                                   bool scan_tail = false) {
  bench::BenchResult r = Result(overall);
  uint64_t ts = 0;
  for (int i = 0; i < head + tail; i++) {
    lsm::IntervalSample s;
    s.ts_us = ts += 1'000'000;
    s.interval_us = 1'000'000;
    const double rate = i < head ? head_rate : tail_rate;
    if (i >= head && scan_tail) {
      s.seeks = static_cast<uint64_t>(rate);
    } else {
      s.writes = static_cast<uint64_t>(rate);
      s.ops = s.writes;
    }
    s.ops_per_sec = rate;
    r.timeseries.push_back(s);
  }
  r.sample_interval_us = 1'000'000;
  return r;
}

TEST(ActiveFlagger, MidProbeCollapseAbortsDespiteHealthyAverage) {
  // Averages to 70% of best — above the 50% floor — but the run
  // collapsed to 20% partway through and stayed there.
  auto probe = ProbeWithSeries(/*overall=*/70000, /*head_rate=*/100000,
                               /*head=*/8, /*tail_rate=*/20000, /*tail=*/6);
  auto v = ActiveFlagger::JudgeProbe(Result(100000), probe);
  EXPECT_TRUE(v.abort);
  EXPECT_NE(v.reason.find("collapse"), std::string::npos);
}

TEST(ActiveFlagger, StableProbeDoesNotAbort) {
  auto probe = ProbeWithSeries(70000, 70000, 8, 70000, 6);
  EXPECT_FALSE(ActiveFlagger::JudgeProbe(Result(100000), probe).abort);
}

TEST(ActiveFlagger, PhaseShiftExplainsCollapseNoAbort) {
  // Same throughput collapse, but the tail is a scan phase: the
  // workload changed shape, so the configuration is not condemned.
  auto probe = ProbeWithSeries(70000, 100000, 8, 20000, 6,
                               /*scan_tail=*/true);
  EXPECT_FALSE(ActiveFlagger::JudgeProbe(Result(100000), probe).abort);
}

}  // namespace
}  // namespace elmo::tune
