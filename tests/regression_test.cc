#include "bench_kit/regression.h"

#include <gtest/gtest.h>

#include "bench_kit/workload.h"
#include "env/device_model.h"
#include "env/hardware_profile.h"

namespace elmo::bench {
namespace {

// The matrix's only pass/fail rule besides equality with the committed
// file: no cell may report a failed operation. A hand-built report with
// one error in one cell must surface it, however fast that cell ran.
TEST(MatrixReport, FailedOpsSumsCellErrors) {
  MatrixReport r;
  r.seed = 42;
  r.mode = "quick";
  r.cells.emplace_back("nvme_4c4g/fillrandom",
                       MetricMap{{"ops_per_sec", 240000.0}, {"errors", 0.0}});
  r.cells.emplace_back("nvme_4c4g/readrandom",
                       MetricMap{{"ops_per_sec", 15000.0}});
  EXPECT_EQ(r.FailedOps(), 0u);
  r.cells[0].second["errors"] = 1;
  EXPECT_EQ(r.FailedOps(), 1u);
  r.cells[1].second["errors"] = 2;
  EXPECT_EQ(r.FailedOps(), 3u);
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
  // Two same-seed runs of a tiny custom matrix must serialize to the
  // same bytes: the committed BENCH_matrix.json is checked by equality.
  std::vector<MatrixCell> cells;
  cells.push_back({"tiny/fillrandom",
                   HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()),
                   WorkloadSpec::FillRandom(30000)});
  cells.push_back({"tiny/mixgraph",
                   HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()),
                   WorkloadSpec::Mixgraph(20000)});
  MatrixReport a = RunMatrix(cells, 7, "quick");
  MatrixReport b = RunMatrix(cells, 7, "quick");
  EXPECT_EQ(a.ToJson(), b.ToJson());
  // A different seed must actually change a metric, not only the
  // sim_seed field.
  MatrixReport c = RunMatrix(cells, 8, "quick");
  c.seed = a.seed;
  EXPECT_NE(a.ToJson(), c.ToJson());
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
