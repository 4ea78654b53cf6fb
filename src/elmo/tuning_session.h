// TuningSession: the ELMo-Tune feedback loop (paper Figure 2).
//
//   prompt -> LLM -> Option Evaluator -> Safeguard Enforcer ->
//   benchmark (with early-stop monitor) -> Active Flagger ->
//   keep / revert -> next prompt,
//
// for max_iterations iterations. The full per-iteration history is
// retained so the benches can regenerate the paper's Figures 3/4 and
// Table 5.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_kit/bench_runner.h"
#include "elmo/safeguard.h"
#include "llm/llm_client.h"

namespace elmo::tune {

struct TuningConfig {
  int max_iterations = 7;  // the paper converges within 7
  // Early-abort probe: fraction of the workload run before the monitor
  // decides whether to redo (0 disables the probe).
  double probe_fraction = 0.1;
  // Crash certification: before a winning configuration is kept, run it
  // through the elmo_stress harness (FaultInjectionEnv + crash/reopen
  // cycles + expected-state oracle). A config that loses acknowledged
  // writes is reverted no matter how fast it is. 0 ops disables.
  uint64_t certify_ops = 0;
};

struct IterationRecord {
  int iteration = 0;
  std::string prompt;
  std::string response;
  SafeguardReport safeguard;
  // Option name -> value for changes that were actually applied.
  std::map<std::string, std::string> applied_changes;
  bench::BenchResult result;
  bool early_aborted = false;  // probe triggered a redo
  bool kept = false;
  std::string decision_reason;
  // Verdict of the crash-certification stress run ("" when disabled).
  std::string certify_summary;
};

struct TuningOutcome {
  bench::BenchResult baseline;            // iteration 0 (defaults)
  std::vector<IterationRecord> iterations;
  lsm::Options best_options;
  bench::BenchResult best_result;
  std::string final_options_file;

  double ThroughputGain() const {
    return baseline.ops_per_sec > 0
               ? best_result.ops_per_sec / baseline.ops_per_sec
               : 0;
  }
};

class TuningSession {
 public:
  TuningSession(bench::BenchRunner* runner, llm::LlmClient* llm,
                const bench::WorkloadSpec& workload,
                const TuningConfig& config = {});

  // Runs the full loop starting from `initial` (engine defaults by
  // default) and returns the complete history.
  TuningOutcome Run(const lsm::Options& initial = {});

 private:
  bench::BenchRunner* runner_;
  llm::LlmClient* llm_;
  bench::WorkloadSpec workload_;
  TuningConfig cfg_;
};

}  // namespace elmo::tune
