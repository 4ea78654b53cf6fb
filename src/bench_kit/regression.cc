#include "bench_kit/regression.h"

#include <cmath>

#include "bench_kit/bench_runner.h"
#include "env/device_model.h"
#include "util/json.h"

namespace elmo::bench {

namespace {

// Committed BENCH files should be stable and readable: three decimals
// keep %.17g noise out of diffs.
double RoundMetric(double v) { return std::round(v * 1000.0) / 1000.0; }

}  // namespace

std::vector<MatrixCell> DefaultMatrix(bool quick) {
  const auto nvme =
      HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  const auto hdd = HardwareProfile::Make(4, 4, DeviceModel::SataHdd());

  auto scale = [quick](uint64_t full_ops) {
    return quick ? full_ops / 4 : full_ops;
  };

  std::vector<MatrixCell> cells;
  cells.push_back({"nvme_4c4g/fillrandom", nvme,
                   WorkloadSpec::FillRandom(scale(600000))});
  cells.push_back({"nvme_4c4g/readrandom", nvme,
                   WorkloadSpec::ReadRandom(scale(120000), scale(800000))});
  cells.push_back(
      {"nvme_4c4g/readwhilewriting", nvme,
       WorkloadSpec::ReadWhileWriting(scale(240000), scale(600000))});
  cells.push_back({"nvme_4c4g/seekrandom", nvme,
                   WorkloadSpec::SeekRandom(scale(32000), scale(600000),
                                            /*scan_length=*/50)});
  cells.push_back({"nvme_4c4g/mixgraph", nvme,
                   WorkloadSpec::Mixgraph(scale(240000))});
  if (!quick) {
    // The device axis only in the full (push-to-main) matrix: HDD cells
    // are slow and mostly move with the same code paths.
    cells.push_back({"hdd_4c4g/fillrandom", hdd,
                     WorkloadSpec::FillRandom(scale(400000))});
    cells.push_back({"hdd_4c4g/mixgraph", hdd,
                     WorkloadSpec::Mixgraph(scale(120000))});
  }
  return cells;
}

MetricMap MetricsFromResult(const BenchResult& r) {
  MetricMap m;
  m["ops_per_sec"] = RoundMetric(r.ops_per_sec);
  m["mb_per_sec"] = RoundMetric(r.mb_per_sec);
  m["p99_write_us"] = RoundMetric(r.p99_write_us());
  m["p99_read_us"] = RoundMetric(r.p99_read_us());
  m["p999_write_us"] = RoundMetric(r.p999_write_us());
  m["p999_read_us"] = RoundMetric(r.p999_read_us());
  m["stall_seconds"] = RoundMetric(r.write_stall_micros / 1e6);
  m["write_amp"] = RoundMetric(r.WriteAmplification());
  m["cache_hit_rate"] = RoundMetric(r.block_cache_hit_rate);
  m["flushes"] = static_cast<double>(r.flushes);
  m["compactions"] = static_cast<double>(r.compactions);
  m["errors"] = static_cast<double>(r.errors());

  // p99 tail-attribution shares from the run's span trace. The names
  // are FIXED and always emitted (0.0 when the trace captured no tail
  // for that op), so every cell carries the same metric set.
  static const struct {
    const char* metric;
    const char* op;
    const char* component;
  } kAttrMetrics[] = {
      {"attr_p99_write_wal_sync", "write", "wal_sync"},
      {"attr_p99_write_wal_append", "write", "wal_append"},
      {"attr_p99_write_memtable", "write", "memtable_insert"},
      {"attr_p99_write_stall", "write", "stall_wait"},
      {"attr_p99_write_self", "write", "self"},
      {"attr_p99_get_memtable", "get", "memtable_probe"},
      {"attr_p99_get_sst", "get", "sst_probe"},
      {"attr_p99_get_self", "get", "self"},
  };
  // Each share is rounded once, like every other metric.
  for (const auto& am : kAttrMetrics) m[am.metric] = 0.0;
  if (r.span_attribution) {
    for (const SpanOpAttribution& op : r.span_attribution->ops) {
      for (const SpanOpAttribution::Component& c : op.tail_components) {
        for (const auto& am : kAttrMetrics) {
          if (op.op == am.op && c.name == am.component) {
            m[am.metric] = RoundMetric(c.share);
          }
        }
      }
    }
  }
  return m;
}

uint64_t MatrixReport::FailedOps() const {
  uint64_t failed = 0;
  for (const auto& cell : cells) {
    auto it = cell.second.find("errors");
    if (it != cell.second.end()) failed += static_cast<uint64_t>(it->second);
  }
  return failed;
}

std::string MatrixReport::ToJson() const {
  json::Object doc;
  doc["kind"] = "bench_matrix";
  doc["schema_version"] = schema_version;
  doc["build"] = build;
  doc["sim_seed"] = static_cast<int64_t>(seed);
  doc["mode"] = mode;
  json::Object cell_obj;
  for (const auto& [name, metrics] : cells) {
    json::Object mo;
    for (const auto& [k, v] : metrics) mo[k] = v;
    cell_obj[name] = std::move(mo);
  }
  doc["cells"] = std::move(cell_obj);
  return json::Value(std::move(doc)).Dump(2);
}

MatrixReport RunMatrix(
    const std::vector<MatrixCell>& cells, uint64_t seed,
    const std::string& mode,
    const std::function<void(const MatrixCell&, const MetricMap&)>& on_cell,
    const std::function<void(const MatrixCell&, const BenchResult&,
                             const std::string& span_trace)>& on_result) {
  MatrixReport report;
  report.build = BuildStamp();
  report.seed = seed;
  report.mode = mode;
  for (const auto& cell : cells) {
    // A fresh runner per cell: no state leaks between cells, and any
    // subset of the matrix reproduces the full run's numbers.
    BenchRunner runner(cell.hw, seed);
    std::string span_trace;
    BenchResult result = runner.Run(cell.spec, lsm::Options(),
                                    on_result ? &span_trace : nullptr);
    MetricMap metrics = MetricsFromResult(result);
    if (on_cell) on_cell(cell, metrics);
    if (on_result) on_result(cell, result, span_trace);
    report.cells.emplace_back(cell.name, std::move(metrics));
  }
  return report;
}

}  // namespace elmo::bench
