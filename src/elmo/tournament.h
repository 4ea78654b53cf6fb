// Tuner tournament: SimulatedExpertLlm head-to-head against stronger
// baselines — random search, grid search, and a CAMAL-style cost-model
// tuner — under an identical evaluation budget. Each contender proposes
// one configuration per trial; the tournament benchmarks every proposal
// on the same seeded BenchRunner and records the convergence curve, the
// best configuration, and how many trials each tuner needed to get
// within 5% of the overall winner. Output: BENCH_tournament.json plus
// the EXPERIMENTS.md summary table (tools/elmo_bench_matrix --tournament).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench_kit/bench_runner.h"
#include "bench_kit/workload.h"
#include "env/hardware_profile.h"
#include "lsm/options.h"
#include "util/json.h"

namespace elmo::tune {

// One evaluated trial, visible to the tuner when proposing the next
// configuration. Trial 0 is always the engine defaults.
struct TunerObservation {
  lsm::Options options;
  bench::BenchResult result;
};

// A configuration-search strategy. Propose() must be deterministic
// given the construction seed and the observation history.
class Tuner {
 public:
  virtual ~Tuner() = default;
  virtual const char* Name() const = 0;
  virtual lsm::Options Propose(
      const std::vector<TunerObservation>& history) = 0;
};

// Naive baseline 1: seeded random sampling from a fixed search space of
// plausible values per option (what a practitioner would randomize over,
// not the schema's full legal ranges).
std::unique_ptr<Tuner> MakeRandomSearchTuner(uint64_t seed);

// Naive baseline 2: deterministic row-major enumeration of a coarse
// grid over the four highest-leverage options (bloom bits, block cache,
// memtable size, background jobs).
std::unique_ptr<Tuner> MakeGridSearchTuner();

// CAMAL-style baseline: scores the whole search space with an analytic
// LSM cost model (lsm/cost_model.h constants + the device model +
// workload mix), proposes best-predicted-first, and refines the model's
// calibration from every observed result (active learning loop).
std::unique_ptr<Tuner> MakeCostModelTuner(const HardwareProfile& hw,
                                          const bench::WorkloadSpec& workload,
                                          uint64_t seed);

// The paper's contender: SimulatedExpertLlm behind the full ELMo-Tune
// pipeline (prompt generation -> LLM -> option evaluator -> safeguard),
// driven one proposal per trial so budgets are identical.
std::unique_ptr<Tuner> MakeLlmTuner(const HardwareProfile& hw,
                                    const bench::WorkloadSpec& workload,
                                    uint64_t seed);

struct TournamentConfig {
  HardwareProfile hw;
  bench::WorkloadSpec workload;
  // Evaluations per tuner after the shared defaults baseline.
  int budget = 10;
  uint64_t seed = 42;
  // Contender names to run; empty = all four. Valid names:
  // "llm", "random", "grid", "cost_model".
  std::vector<std::string> contenders;
};

struct TunerRun {
  std::string name;
  // ops/sec of each evaluated trial, starting with the shared defaults
  // baseline at index 0 (length budget + 1).
  std::vector<double> trial_ops_per_sec;
  // Best-so-far curve over the same indices (non-decreasing).
  std::vector<double> best_curve;
  double best_ops_per_sec = 0;
  double gain_vs_default = 0;
  // First trial index whose best-so-far is within 5% of the overall
  // tournament-best throughput; -1 if never reached.
  int trials_to_within_5pct = -1;
  // Options-file text of the best configuration found.
  std::string best_options_ini;
  int64_t errors = 0;  // failed operations over all trials
};

struct TournamentReport {
  int schema_version = 0;  // filled from kBenchSchemaVersion
  std::string build;  // BuildStamp() of the binary that wrote it
  uint64_t seed = 0;
  std::string hardware;
  std::string workload;
  int budget = 0;
  double default_ops_per_sec = 0;
  std::vector<TunerRun> runs;
  std::string winner;  // name of the run with the best throughput

  std::string ToJson() const;
  // Markdown table for EXPERIMENTS.md.
  std::string SummaryTable() const;
};

TournamentReport RunTournament(const TournamentConfig& config);

// Online-vs-offline comparison on a time-varying workload (default:
// WorkloadSpec::Phased — load, then point reads, then scans). Each
// static contender runs the whole workload with its configuration
// fixed, the way offline tuning must; the online run starts from the
// engine defaults and lets an OnlineTuner apply DB::SetOptions()
// deltas as the health monitor detects the phase shifts. On a workload
// whose phases want opposite memory splits, no static configuration
// can match per-phase reconfiguration — which is the measurement.
struct OnlineVsOfflineConfig {
  HardwareProfile hw;
  bench::WorkloadSpec workload = bench::WorkloadSpec::Phased();
  uint64_t seed = 42;
  // Route proposals through the SimulatedExpertLlm live-delta prompt
  // first (heuristic fallback); false = heuristic only.
  bool use_llm = true;
};

struct OnlineVsOfflineReport {
  int schema_version = 0;
  std::string build;  // BuildStamp() of the binary that wrote it
  uint64_t seed = 0;
  std::string hardware;
  std::string workload;
  struct StaticRun {
    std::string name;
    std::string description;
    double ops_per_sec = 0;
  };
  std::vector<StaticRun> static_runs;
  std::string best_static;
  double best_static_ops_per_sec = 0;
  double online_ops_per_sec = 0;
  // online / best static; > 1 means reconfiguring mid-run won.
  double online_gain_vs_best_static = 0;
  int64_t errors = 0;  // failed operations over every run
  int applied_deltas = 0;
  int rollbacks = 0;
  int oscillations = 0;
  // Full observe -> propose -> apply -> verdict timeline of the online
  // run (OnlineTuner::TimelineJson()); empty when no tuner ran.
  json::Object timeline;

  std::string ToJson() const;
  // Markdown table for EXPERIMENTS.md.
  std::string SummaryTable() const;
};

OnlineVsOfflineReport RunOnlineVsOffline(const OnlineVsOfflineConfig& config);

}  // namespace elmo::tune
