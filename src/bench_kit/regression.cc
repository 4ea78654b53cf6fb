#include "bench_kit/regression.h"

#include <cmath>
#include <cstdio>

#include "bench_kit/bench_runner.h"
#include "env/device_model.h"
#include "util/json.h"

namespace elmo::bench {

namespace {

// Committed BENCH files should be stable and readable: three decimals
// is far below any gate threshold and keeps %.17g noise out of diffs.
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
  // for that op) so CompareMatrix never flags them as dropped metrics.
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

const MetricMap* MatrixReport::Find(const std::string& name) const {
  for (const auto& [cell, metrics] : cells) {
    if (cell == name) return &metrics;
  }
  return nullptr;
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

Status MatrixReport::FromJson(const std::string& text, MatrixReport* out) {
  json::Value doc;
  Status s = json::Parse(text, &doc);
  if (!s.ok()) return s;
  if (!doc.is_object()) {
    return Status::Corruption("bench_matrix", "top-level not an object");
  }
  const json::Value* kind = doc.Find("kind");
  if (kind == nullptr || !kind->is_string() ||
      kind->as_string() != "bench_matrix") {
    return Status::Corruption("bench_matrix", "missing kind=bench_matrix");
  }
  *out = MatrixReport();
  if (const json::Value* v = doc.Find("schema_version");
      v != nullptr && v->is_number()) {
    out->schema_version = static_cast<int>(v->as_int());
  } else {
    out->schema_version = 0;  // pre-versioned file; comparison refuses it
  }
  if (const json::Value* v = doc.Find("build");
      v != nullptr && v->is_string()) {
    out->build = v->as_string();
  }
  if (const json::Value* v = doc.Find("sim_seed");
      v != nullptr && v->is_number()) {
    out->seed = static_cast<uint64_t>(v->as_int());
  }
  if (const json::Value* v = doc.Find("mode");
      v != nullptr && v->is_string()) {
    out->mode = v->as_string();
  }
  const json::Value* cells = doc.Find("cells");
  if (cells == nullptr || !cells->is_object()) {
    return Status::Corruption("bench_matrix", "missing cells object");
  }
  for (const auto& [name, metrics] : cells->as_object()) {
    if (!metrics.is_object()) {
      return Status::Corruption("bench_matrix",
                                "cell " + name + " not an object");
    }
    MetricMap m;
    for (const auto& [k, v] : metrics.as_object()) {
      if (v.is_number()) m[k] = v.as_double();
    }
    out->cells.emplace_back(name, std::move(m));
  }
  return Status::OK();
}

std::string MatrixReport::MetricsFingerprint() const {
  json::Object cell_obj;
  for (const auto& [name, metrics] : cells) {
    json::Object mo;
    for (const auto& [k, v] : metrics) mo[k] = v;
    cell_obj[name] = std::move(mo);
  }
  return json::Value(std::move(cell_obj)).Dump();
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

namespace {

// Gate table: how each metric participates in the breach decision.
enum class Gate { kThroughputDrop, kP99Rise, kP999Rise, kZero, kInfoOnly };

Gate GateFor(const std::string& metric) {
  if (metric == "errors") return Gate::kZero;
  if (metric == "ops_per_sec" || metric == "mb_per_sec") {
    return metric == "ops_per_sec" ? Gate::kThroughputDrop : Gate::kInfoOnly;
  }
  if (metric == "p99_write_us" || metric == "p99_read_us") {
    return Gate::kP99Rise;
  }
  if (metric == "p999_write_us" || metric == "p999_read_us") {
    return Gate::kP999Rise;
  }
  return Gate::kInfoOnly;
}

}  // namespace

CompareReport CompareMatrix(const MatrixReport& baseline,
                            const MatrixReport& current,
                            const RegressionThresholds& thresholds) {
  CompareReport out;
  out.baseline_build = baseline.build;
  out.current_build = current.build;

  if (baseline.schema_version != current.schema_version) {
    out.incomparable_reason =
        "schema_version mismatch: baseline v" +
        std::to_string(baseline.schema_version) + " vs current v" +
        std::to_string(current.schema_version);
    return out;
  }
  if (baseline.mode != current.mode) {
    out.incomparable_reason = "mode mismatch: baseline '" + baseline.mode +
                              "' vs current '" + current.mode + "'";
    return out;
  }
  out.comparable = true;

  char buf[256];
  for (const auto& [cell, base_metrics] : baseline.cells) {
    const MetricMap* cur_metrics = current.Find(cell);
    if (cur_metrics == nullptr) {
      out.missing_cells.push_back(cell);
      continue;
    }
    for (const auto& [metric, base_v] : base_metrics) {
      auto it = cur_metrics->find(metric);
      if (it == cur_metrics->end()) {
        out.missing_metrics.push_back(cell + ": " + metric);
        continue;
      }
      const double cur_v = it->second;
      if (base_v == 0 && cur_v == 0) continue;

      MetricDelta d;
      d.cell = cell;
      d.metric = metric;
      d.baseline = base_v;
      d.current = cur_v;
      d.delta_pct =
          base_v == 0 ? 0 : (cur_v - base_v) / base_v * 100.0;

      const Gate gate = GateFor(metric);
      // Any error fails the cell, whatever the baseline held.
      d.gated = gate == Gate::kZero ||
                (gate != Gate::kInfoOnly && base_v != 0);
      if (d.gated) {
        switch (gate) {
          case Gate::kThroughputDrop:
            d.breach = d.delta_pct < -thresholds.max_throughput_drop_pct;
            break;
          case Gate::kP99Rise:
            d.breach = d.delta_pct > thresholds.max_p99_rise_pct;
            break;
          case Gate::kP999Rise:
            d.breach = d.delta_pct > thresholds.max_p999_rise_pct;
            break;
          case Gate::kZero:
            d.breach = cur_v > 0;
            break;
          case Gate::kInfoOnly:
            break;
        }
      }
      if (d.breach) {
        snprintf(buf, sizeof(buf), "%s: %s %.3f -> %.3f (%+.1f%%)",
                 cell.c_str(), metric.c_str(), d.baseline, d.current,
                 d.delta_pct);
        out.breaches.push_back(buf);
      }
      out.deltas.push_back(std::move(d));
    }
  }
  for (const auto& [cell, metrics] : current.cells) {
    (void)metrics;
    if (baseline.Find(cell) == nullptr) out.new_cells.push_back(cell);
  }
  return out;
}

std::string CompareReport::ToText() const {
  std::string out;
  char buf[256];
  if (!comparable) {
    return "INCOMPARABLE: " + incomparable_reason + "\n";
  }
  snprintf(buf, sizeof(buf), "baseline %s vs current %s\n",
           baseline_build.c_str(), current_build.c_str());
  out += buf;
  out +=
      "cell                           metric          baseline     "
      "current    delta\n";
  for (const auto& d : deltas) {
    snprintf(buf, sizeof(buf), "%-30s %-14s %11.3f %11.3f %+7.1f%%%s%s\n",
             d.cell.c_str(), d.metric.c_str(), d.baseline, d.current,
             d.delta_pct, d.gated ? "" : "  (info)",
             d.breach ? "  << BREACH" : "");
    out += buf;
  }
  for (const auto& c : missing_cells) {
    out += "MISSING CELL (in current run): " + c + "\n";
  }
  for (const auto& m : missing_metrics) {
    out += "MISSING METRIC (in current run): " + m + "\n";
  }
  for (const auto& c : new_cells) {
    out += "new cell (no baseline): " + c + "\n";
  }
  if (HasBreach()) {
    out += "RESULT: REGRESSION BREACH (" +
           std::to_string(breaches.size() + missing_cells.size() +
                          missing_metrics.size()) +
           " finding(s))\n";
  } else {
    out += "RESULT: ok\n";
  }
  return out;
}

std::string CompareReport::ToJson() const {
  json::Object doc;
  doc["kind"] = "bench_matrix_diff";
  doc["comparable"] = comparable;
  doc["incomparable_reason"] = incomparable_reason;
  doc["baseline_build"] = baseline_build;
  doc["current_build"] = current_build;
  doc["has_breach"] = HasBreach();
  json::Array deltas_arr;
  for (const auto& d : deltas) {
    json::Object o;
    o["cell"] = d.cell;
    o["metric"] = d.metric;
    o["baseline"] = d.baseline;
    o["current"] = d.current;
    o["delta_pct"] = d.delta_pct;
    o["gated"] = d.gated;
    o["breach"] = d.breach;
    deltas_arr.push_back(json::Value(std::move(o)));
  }
  doc["deltas"] = std::move(deltas_arr);
  auto to_arr = [](const std::vector<std::string>& v) {
    json::Array a;
    for (const auto& s : v) a.push_back(json::Value(s));
    return a;
  };
  doc["missing_cells"] = to_arr(missing_cells);
  doc["missing_metrics"] = to_arr(missing_metrics);
  doc["new_cells"] = to_arr(new_cells);
  doc["breaches"] = to_arr(breaches);
  return json::Value(std::move(doc)).Dump(2);
}

}  // namespace elmo::bench
