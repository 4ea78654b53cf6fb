// Perf-trajectory regression harness: runs a fixed, SimEnv-seeded
// workload matrix, persists the per-cell metrics as a schema-versioned
// BENCH_matrix.json at the repo root, and diffs a fresh run against the
// previously committed file with configurable regression thresholds.
// The committed file is the repo's performance trajectory: every PR
// regenerates it deterministically and CI fails when a cell regresses
// beyond the thresholds (tools/elmo_bench_matrix is the CLI driver).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_kit/report.h"
#include "bench_kit/workload.h"
#include "env/hardware_profile.h"
#include "util/status.h"

namespace elmo::bench {

// One matrix entry: a named (hardware, workload) cell. Names are stable
// keys ("nvme_4c4g/fillrandom") — the comparison joins on them.
struct MatrixCell {
  std::string name;
  HardwareProfile hw;
  WorkloadSpec spec;
};

// The fixed matrix CI runs. `quick` is the PR-sized variant (same cells,
// reduced op counts) — comparisons are only valid between same-mode
// files, which the mode field enforces.
std::vector<MatrixCell> DefaultMatrix(bool quick);

// Flat metric block of one cell. A map (not a struct) so the comparison
// is generic over metric names and older files with missing metrics are
// detected rather than silently defaulted.
using MetricMap = std::map<std::string, double>;

MetricMap MetricsFromResult(const BenchResult& r);

struct MatrixReport {
  int schema_version = kBenchSchemaVersion;
  std::string build;  // BuildStamp() of the binary that wrote it
  uint64_t seed = 0;
  std::string mode;  // "quick" | "full"
  // Insertion order preserved (matrix order) for readable reports.
  std::vector<std::pair<std::string, MetricMap>> cells;

  const MetricMap* Find(const std::string& name) const;

  std::string ToJson() const;
  static Status FromJson(const std::string& text, MatrixReport* out);

  // The metric blocks only — no git SHA, no metadata. Two same-seed
  // runs must produce identical fingerprints (test-enforced).
  std::string MetricsFingerprint() const;
};

// Runs every cell on a fresh seeded BenchRunner under the engine's
// default options (the trajectory tracks the *engine*, not a tuner).
// `on_cell` (optional) observes progress; `on_result` (optional) sees
// the full BenchResult per cell and the raw bytes of its span trace —
// how the CLI exports span-trace / Perfetto / attribution artifacts
// without RunMatrix knowing about filesystems.
MatrixReport RunMatrix(
    const std::vector<MatrixCell>& cells, uint64_t seed,
    const std::string& mode,
    const std::function<void(const MatrixCell&, const MetricMap&)>& on_cell =
        {},
    const std::function<void(const MatrixCell&, const BenchResult&,
                             const std::string& span_trace)>& on_result = {});

struct RegressionThresholds {
  // Throughput may drop at most this much before the gate trips.
  double max_throughput_drop_pct = 15.0;
  // p99 latencies may rise at most this much.
  double max_p99_rise_pct = 25.0;
  // p99.9 is noisier; wider gate.
  double max_p999_rise_pct = 40.0;
};

struct MetricDelta {
  std::string cell;
  std::string metric;
  double baseline = 0;
  double current = 0;
  double delta_pct = 0;  // (current - baseline) / baseline * 100
  bool gated = false;    // participates in the breach decision
  bool breach = false;
};

struct CompareReport {
  // False when the files cannot be diffed at all (schema version or
  // mode mismatch); the gate fails closed with `incomparable_reason`.
  bool comparable = false;
  std::string incomparable_reason;

  // Metadata of the two sides, echoed for the report header.
  std::string baseline_build;
  std::string current_build;

  std::vector<MetricDelta> deltas;
  // Cells/metrics present in the baseline but absent from the current
  // run — a silently dropped measurement is treated as a breach.
  std::vector<std::string> missing_cells;
  std::vector<std::string> missing_metrics;  // "cell: metric"
  // Present only in the current run; informational.
  std::vector<std::string> new_cells;

  // Human-readable one-liners for every tripped gate.
  std::vector<std::string> breaches;

  bool HasBreach() const {
    return !comparable || !breaches.empty() || !missing_cells.empty() ||
           !missing_metrics.empty();
  }

  std::string ToText() const;
  std::string ToJson() const;
};

CompareReport CompareMatrix(const MatrixReport& baseline,
                            const MatrixReport& current,
                            const RegressionThresholds& thresholds = {});

}  // namespace elmo::bench
