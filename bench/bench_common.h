// Shared helpers for the paper-reproduction bench binaries. Each bench
// regenerates one table or figure from the paper's evaluation (§5.2);
// see DESIGN.md §3 for the index.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_kit/bench_runner.h"
#include "elmo/tuning_session.h"
#include "env/device_model.h"
#include "env/hardware_profile.h"
#include "llm/expert_llm.h"

namespace elmo::benchmain {

struct TunedRun {
  bench::BenchResult baseline;
  bench::BenchResult tuned;
  tune::TuningOutcome outcome;
};

// Every benchmark run is a correctness check: each bench reports on
// stderr how many operations failed (reads, writes, scans) in its runs.
inline void ReportErrors(const std::string& what, uint64_t errors) {
  fprintf(stderr, "%s: %llu failed operations\n", what.c_str(),
          static_cast<unsigned long long>(errors));
}

// Failed operations over a session's baseline and every iteration.
inline uint64_t SessionErrors(const tune::TuningOutcome& outcome) {
  uint64_t errors = outcome.baseline.errors();
  for (const auto& it : outcome.iterations) errors += it.result.errors();
  return errors;
}

// Runs a full ELMo-Tune session (iteration 0 = defaults, then
// `iterations` LLM rounds) for one hardware/workload cell.
inline TunedRun RunCell(const HardwareProfile& hw,
                        const bench::WorkloadSpec& spec, uint64_t seed,
                        int iterations = 7) {
  bench::BenchRunner runner(hw, /*seed=*/42);
  llm::ExpertConfig ecfg;
  ecfg.seed = seed;
  llm::SimulatedExpertLlm gpt(ecfg);
  tune::TuningConfig tcfg;
  tcfg.max_iterations = iterations;
  tune::TuningSession session(&runner, &gpt, spec, tcfg);

  TunedRun run;
  run.outcome = session.Run();
  ReportErrors(std::string(bench::WorkloadTypeName(spec.type)) + " on " +
                   hw.Label(),
               SessionErrors(run.outcome));
  run.baseline = run.outcome.baseline;
  run.tuned = run.outcome.best_result;
  return run;
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  printf("\n=====================================================\n");
  printf("%s\n", title.c_str());
  printf("(reproduces %s; see EXPERIMENTS.md for the paper-vs-measured "
         "comparison)\n",
         paper_ref.c_str());
  printf("=====================================================\n");
}

inline const char* DeviceShort(const DeviceModel& d) {
  return d.name == "SATA HDD" ? "HDD" : "NVMe";
}

}  // namespace elmo::benchmain
