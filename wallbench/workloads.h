// The closed-loop workloads. Each runs its set-up once and records its
// time from `start_ns` in out->setup_s (run.py starts several processes
// and reports the median), then measures for the requested seconds in
// rounds, checks every result it reads, and fills `out` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace wallbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // When the process was started, on the NowNs() clock.
  int64_t start_ns = 0;
  // Stop after the set-up.
  bool setup_only = false;
};

void RunFill(const RunConfig& cfg, Checker* checker, RunResult* out);
void RunTune(const RunConfig& cfg, Checker* checker, RunResult* out);

// Runs one tuning session, then loads and reads back keys on the real
// engine with the session's best configuration. Returns "" when every
// read is right, else the failure count and the first failure.
std::string CheckTunedConfig(uint64_t seed);

}  // namespace wallbench
