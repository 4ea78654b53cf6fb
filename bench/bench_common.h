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

// `v` to `decimals` places; whole numbers get thousands separators
// ("119,860"), as in EXPERIMENTS.md.
inline std::string Num(double v, int decimals = 0) {
  std::string s(64, '\0');
  s.resize(snprintf(s.data(), s.size(), "%.*f", decimals, v));
  for (int i = static_cast<int>(s.size()) - 3;
       decimals == 0 && i > (s[0] == '-'); i -= 3) {
    s.insert(i, ",");
  }
  return s;
}

// Prints one markdown table: a header row, a `|---|` separator and the
// data rows. tools/check_paper_table.py requires every printed table,
// verbatim, in EXPERIMENTS.md, so the doc's tables are pasted from here.
inline void PrintTable(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  auto print_row = [](const std::vector<std::string>& cells) {
    for (const auto& c : cells) printf("| %s ", c.c_str());
    printf("|\n");
  };
  print_row(header);
  for (size_t i = 0; i < header.size(); i++) printf("|---");
  printf("|\n");
  for (const auto& r : rows) print_row(r);
}

}  // namespace elmo::benchmain
