#include "bench_kit/regression.h"

#include <gtest/gtest.h>

#include "bench_kit/workload.h"
#include "env/device_model.h"
#include "env/hardware_profile.h"

namespace elmo::bench {
namespace {

// Hand-built reports for the comparison golden cases. A realistic cell:
// the quick-matrix fillrandom block.
MatrixReport GoldenBaseline() {
  MatrixReport r;
  r.build = "baseline000000";
  r.seed = 42;
  r.mode = "quick";
  r.cells.emplace_back(
      "nvme_4c4g/fillrandom",
      MetricMap{{"ops_per_sec", 160000.0},
                {"p99_write_us", 9.0},
                {"p999_write_us", 12.0},
                {"write_amp", 3.7},
                {"errors", 0.0}});
  r.cells.emplace_back("nvme_4c4g/readrandom",
                       MetricMap{{"ops_per_sec", 15000.0},
                                 {"p99_read_us", 90.0},
                                 {"p999_read_us", 95.0}});
  return r;
}

const MetricDelta* FindDelta(const CompareReport& cmp,
                             const std::string& cell,
                             const std::string& metric) {
  for (const auto& d : cmp.deltas) {
    if (d.cell == cell && d.metric == metric) return &d;
  }
  return nullptr;
}

TEST(CompareMatrix, ImprovementPasses) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  cur.build = "current0000000";
  // Faster and lower-latency everywhere: never a breach.
  for (auto& [cell, m] : cur.cells) {
    m["ops_per_sec"] *= 1.30;
    for (auto& [k, v] : m) {
      if (k.rfind("p99", 0) == 0) v *= 0.8;
    }
  }
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_TRUE(cmp.comparable);
  EXPECT_FALSE(cmp.HasBreach());
  EXPECT_TRUE(cmp.breaches.empty());
  const MetricDelta* d = FindDelta(cmp, "nvme_4c4g/fillrandom", "ops_per_sec");
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->delta_pct, 30.0, 0.01);
  EXPECT_TRUE(d->gated);
  EXPECT_FALSE(d->breach);
}

TEST(CompareMatrix, Planted20PctSlowdownBreaches) {
  // The acceptance scenario: a planted 20% throughput regression must
  // trip the default 15% gate.
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  for (auto& [cell, m] : cur.cells) m["ops_per_sec"] *= 0.80;
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_TRUE(cmp.comparable);
  EXPECT_TRUE(cmp.HasBreach());
  EXPECT_EQ(cmp.breaches.size(), 2u);  // both cells' ops_per_sec
  const MetricDelta* d = FindDelta(cmp, "nvme_4c4g/fillrandom", "ops_per_sec");
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->delta_pct, -20.0, 0.01);
  EXPECT_TRUE(d->breach);
  // The report text names the breach.
  EXPECT_NE(cmp.ToText().find("REGRESSION BREACH"), std::string::npos);
  EXPECT_NE(cmp.ToJson().find("\"has_breach\": true"), std::string::npos);
}

TEST(CompareMatrix, AnyErrorBreaches) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  EXPECT_FALSE(CompareMatrix(base, cur).HasBreach());
  // A faster run with one failed op still fails its cell.
  cur.cells[0].second["ops_per_sec"] *= 1.5;
  cur.cells[0].second["errors"] = 1;
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_TRUE(cmp.HasBreach());
  ASSERT_EQ(cmp.breaches.size(), 1u);
  EXPECT_NE(cmp.breaches[0].find("errors"), std::string::npos);
}

TEST(CompareMatrix, SlowdownWithinThresholdPasses) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  for (auto& [cell, m] : cur.cells) m["ops_per_sec"] *= 0.90;  // -10%
  EXPECT_FALSE(CompareMatrix(base, cur).HasBreach());
  // ...until the thresholds are tightened below the drop.
  RegressionThresholds tight;
  tight.max_throughput_drop_pct = 5.0;
  EXPECT_TRUE(CompareMatrix(base, cur, tight).HasBreach());
}

TEST(CompareMatrix, P99RiseBreaches) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  cur.cells[1].second["p99_read_us"] = 90.0 * 1.30;  // +30% > 25% gate
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_TRUE(cmp.HasBreach());
  const MetricDelta* d = FindDelta(cmp, "nvme_4c4g/readrandom", "p99_read_us");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->breach);
  // p99.9 has its own wider gate: +30% is fine there.
  const MetricDelta* d999 =
      FindDelta(cmp, "nvme_4c4g/readrandom", "p999_read_us");
  ASSERT_NE(d999, nullptr);
  EXPECT_FALSE(d999->breach);
}

TEST(CompareMatrix, InfoMetricsNeverGate) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  cur.cells[0].second["write_amp"] = 37.0;  // 10x worse, info-only
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_FALSE(cmp.HasBreach());
  const MetricDelta* d = FindDelta(cmp, "nvme_4c4g/fillrandom", "write_amp");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->gated);
}

TEST(CompareMatrix, MissingMetricIsABreach) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  cur.cells[0].second.erase("p99_write_us");
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_TRUE(cmp.HasBreach());
  ASSERT_EQ(cmp.missing_metrics.size(), 1u);
  EXPECT_EQ(cmp.missing_metrics[0], "nvme_4c4g/fillrandom: p99_write_us");
}

TEST(CompareMatrix, MissingCellIsABreachNewCellIsNot) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  cur.cells.erase(cur.cells.begin());  // drop fillrandom
  cur.cells.emplace_back("nvme_4c4g/brandnew",
                         MetricMap{{"ops_per_sec", 1.0}});
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_TRUE(cmp.HasBreach());
  ASSERT_EQ(cmp.missing_cells.size(), 1u);
  EXPECT_EQ(cmp.missing_cells[0], "nvme_4c4g/fillrandom");
  ASSERT_EQ(cmp.new_cells.size(), 1u);
  EXPECT_EQ(cmp.new_cells[0], "nvme_4c4g/brandnew");

  // A new cell alone must not fail the gate.
  MatrixReport cur2 = GoldenBaseline();
  cur2.cells.emplace_back("nvme_4c4g/brandnew",
                          MetricMap{{"ops_per_sec", 1.0}});
  EXPECT_FALSE(CompareMatrix(base, cur2).HasBreach());
}

TEST(CompareMatrix, SchemaMismatchFailsClosed) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  base.schema_version = kBenchSchemaVersion - 1;
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_FALSE(cmp.comparable);
  EXPECT_TRUE(cmp.HasBreach());
  EXPECT_NE(cmp.incomparable_reason.find("schema_version"),
            std::string::npos);
  EXPECT_NE(cmp.ToText().find("INCOMPARABLE"), std::string::npos);
}

TEST(CompareMatrix, ModeMismatchFailsClosed) {
  MatrixReport base = GoldenBaseline();
  MatrixReport cur = GoldenBaseline();
  cur.mode = "full";
  CompareReport cmp = CompareMatrix(base, cur);
  EXPECT_FALSE(cmp.comparable);
  EXPECT_TRUE(cmp.HasBreach());
  EXPECT_NE(cmp.incomparable_reason.find("mode"), std::string::npos);
}

TEST(MatrixReport, JsonRoundTrip) {
  MatrixReport r = GoldenBaseline();
  MatrixReport parsed;
  ASSERT_TRUE(MatrixReport::FromJson(r.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.schema_version, r.schema_version);
  EXPECT_EQ(parsed.build, r.build);
  EXPECT_EQ(parsed.seed, r.seed);
  EXPECT_EQ(parsed.mode, r.mode);
  EXPECT_EQ(parsed.MetricsFingerprint(), r.MetricsFingerprint());
  // Round-tripped report compares clean against the original.
  EXPECT_FALSE(CompareMatrix(r, parsed).HasBreach());
}

TEST(MatrixReport, FromJsonRejectsGarbage) {
  MatrixReport out;
  EXPECT_FALSE(MatrixReport::FromJson("not json", &out).ok());
  EXPECT_FALSE(MatrixReport::FromJson("{}", &out).ok());
  EXPECT_FALSE(
      MatrixReport::FromJson("{\"kind\": \"bench_tournament\"}", &out).ok());
  EXPECT_FALSE(
      MatrixReport::FromJson("{\"kind\": \"bench_matrix\"}", &out).ok());
}

TEST(MatrixReport, PreVersionedFileRefused) {
  // A baseline written before schema_version existed parses (version 0)
  // but can never pass the gate against a current-version run.
  MatrixReport old;
  ASSERT_TRUE(MatrixReport::FromJson(
                  "{\"kind\": \"bench_matrix\", \"cells\": {}}", &old)
                  .ok());
  EXPECT_EQ(old.schema_version, 0);
  CompareReport cmp = CompareMatrix(old, GoldenBaseline());
  EXPECT_FALSE(cmp.comparable);
  EXPECT_TRUE(cmp.HasBreach());
}

// The eight attr_p99_* metrics read the tail shares of a run's span
// attribution; a component the tail did not show reads 0.
TEST(MetricsFromResult, TailSharesFromSpanAttribution) {
  auto op = [](const char* name,
               std::vector<SpanOpAttribution::Component> comps) {
    SpanOpAttribution a;
    a.op = name;
    a.tail_components = std::move(comps);
    return a;
  };
  SpanAttribution attr;
  attr.trees = 3;
  attr.ops = {op("write", {{"wal_sync", 0.62, 620},
                           {"stall_wait", 0.2, 200},
                           {"self", 0.66749, 100},
                           {"memtable_insert", 0.05, 50},
                           {"wal_append", 0.03, 30}}),
              op("get", {{"sst_probe", 0.4, 40}, {"self", 0.6, 60}}),
              // Names the metrics do not map are ignored.
              op("flush", {{"table_build", 0.9, 900}})};
  BenchResult r;
  r.span_attribution = attr;

  const MetricMap m = MetricsFromResult(r);
  EXPECT_EQ(m.at("attr_p99_write_wal_sync"), 0.62);
  EXPECT_EQ(m.at("attr_p99_write_wal_append"), 0.03);
  EXPECT_EQ(m.at("attr_p99_write_memtable"), 0.05);
  EXPECT_EQ(m.at("attr_p99_write_stall"), 0.2);
  // Rounded once, to 3 decimals: not through 4 decimals first (0.6675),
  // which would round it up to 0.668.
  EXPECT_EQ(m.at("attr_p99_write_self"), 0.667);
  EXPECT_EQ(m.at("attr_p99_get_memtable"), 0.0);  // not in the tail
  EXPECT_EQ(m.at("attr_p99_get_sst"), 0.4);
  EXPECT_EQ(m.at("attr_p99_get_self"), 0.6);

  // No attribution at all: every metric is still emitted, as 0.
  const MetricMap empty = MetricsFromResult(BenchResult{});
  for (const auto& [name, value] : m) {
    if (name.rfind("attr_p99_", 0) != 0) continue;
    ASSERT_TRUE(empty.count(name)) << name;
    EXPECT_EQ(empty.at(name), 0.0) << name;
  }
}

TEST(RunMatrix, SameSeedIsDeterministic) {
  // Two same-seed runs of a tiny custom matrix must agree byte-for-byte
  // on the metric blocks (the fingerprint excludes git SHA/metadata).
  std::vector<MatrixCell> cells;
  cells.push_back({"tiny/fillrandom",
                   HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()),
                   WorkloadSpec::FillRandom(30000)});
  cells.push_back({"tiny/mixgraph",
                   HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()),
                   WorkloadSpec::Mixgraph(20000)});
  MatrixReport a = RunMatrix(cells, 7, "quick");
  MatrixReport b = RunMatrix(cells, 7, "quick");
  EXPECT_EQ(a.MetricsFingerprint(), b.MetricsFingerprint());
  EXPECT_FALSE(CompareMatrix(a, b).HasBreach());
  // A different seed must actually change something (the fingerprint is
  // not vacuously constant).
  MatrixReport c = RunMatrix(cells, 8, "quick");
  EXPECT_NE(a.MetricsFingerprint(), c.MetricsFingerprint());
}

TEST(RunMatrix, ProducesCompleteMetricBlocks) {
  std::vector<MatrixCell> cells = DefaultMatrix(true);
  ASSERT_GE(cells.size(), 5u);
  // Run just the first cell (fresh-runner-per-cell means the subset
  // reproduces the full run's numbers).
  std::vector<MatrixCell> one{cells[0]};
  one[0].spec.num_ops = 30000;  // keep the unit test fast
  one[0].spec.num_keys = 30000;
  MatrixReport r = RunMatrix(one, 42, "quick");
  ASSERT_EQ(r.cells.size(), 1u);
  const MetricMap& m = r.cells[0].second;
  for (const char* key :
       {"ops_per_sec", "mb_per_sec", "p99_write_us", "p999_write_us",
        "write_amp", "stall_seconds", "flushes", "compactions", "errors"}) {
    EXPECT_TRUE(m.count(key)) << key;
  }
  EXPECT_EQ(m.at("errors"), 0);
  EXPECT_GT(m.at("ops_per_sec"), 0);
  EXPECT_GT(m.at("write_amp"), 0);
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.schema_version, kBenchSchemaVersion);
}

}  // namespace
}  // namespace elmo::bench
