// Perf-trajectory harness: runs a fixed, SimEnv-seeded workload matrix
// and persists the per-cell metrics as a schema-versioned
// BENCH_matrix.json at the repo root. SimEnv is deterministic, so the
// committed file is checked by equality: a fresh run at the same seed
// must reproduce it byte for byte (apart from the "build" stamp), and a
// change that means to move a number commits the regenerated file.
// tools/elmo_bench_matrix is the CLI driver.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_kit/report.h"
#include "bench_kit/workload.h"
#include "env/hardware_profile.h"

namespace elmo::bench {

// One matrix entry: a named (hardware, workload) cell. Names are stable
// keys ("nvme_4c4g/fillrandom") in the committed file.
struct MatrixCell {
  std::string name;
  HardwareProfile hw;
  WorkloadSpec spec;
};

// The fixed matrix CI runs. `quick` is the PR-sized variant (same cells,
// reduced op counts); the file's mode field says which one wrote it.
std::vector<MatrixCell> DefaultMatrix(bool quick);

// Flat metric block of one cell, serialized in key order.
using MetricMap = std::map<std::string, double>;

MetricMap MetricsFromResult(const BenchResult& r);

struct MatrixReport {
  int schema_version = kBenchSchemaVersion;
  std::string build;  // BuildStamp() of the binary that wrote it
  uint64_t seed = 0;
  std::string mode;  // "quick" | "full"
  // Insertion order preserved (matrix order) for readable reports.
  std::vector<std::pair<std::string, MetricMap>> cells;

  // Failed operations over every cell (the sum of their "errors").
  uint64_t FailedOps() const;

  std::string ToJson() const;
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

}  // namespace elmo::bench
