// PromptGenerator: ELMo-Tune's "Automatic prompt generation" module —
// interlaces system information (psutil/fio-style probe), workload
// statistics, the current options file and the latest benchmark report
// into the user prompt sent to the LLM (paper §4.2).
#pragma once

#include <string>
#include <vector>

#include "bench_kit/report.h"
#include "bench_kit/workload.h"
#include "lsm/stats_sampler.h"
#include "sysinfo/system_probe.h"

namespace elmo::tune {

struct PromptInputs {
  int iteration = 1;
  sysinfo::SystemProfile system;
  std::string workload_description;
  std::string current_options_ini;   // the best-known options file text
  // The best run so far. Its report, telemetry over time, IO & cache,
  // latency-attribution and health evidence each become a prompt
  // section; null leaves them all out.
  const bench::BenchResult* best = nullptr;
  // Set when the previous iteration was reverted (the paper's
  // "intermediate prompt with the information about deterioration").
  std::string deterioration_note;
  // "Iteration N: X ops/sec (kept|reverted)" lines.
  std::vector<std::string> history;
  // Options the responder must not modify.
  std::vector<std::string> locked_options;
};

// Inputs for the online tuner's "live delta" prompt: the DB stays
// open, so only the runtime-mutable subset may move, and the evidence
// is the live sampler window rather than a finished benchmark report.
struct LiveDeltaInputs {
  // What tripped the tuner: a phase-shift anomaly line or a diagnosis
  // summary ("write share 0.95 -> 0.02", "rule l0_compaction_backlog").
  std::string trigger_description;
  // DescribeMutable() rendering of the current live values.
  std::string mutable_options;
  // Recent sampler intervals (newest last).
  std::vector<lsm::IntervalSample> recent_samples;
  // Health & diagnosis evidence from the live monitor.
  std::string health_evidence;
  // "applied {a=1, b=2} at t=..s (kept|rolled back)" lines.
  std::vector<std::string> delta_history;
  // Memory the memtables + block cache may use together; stated in the
  // prompt so size proposals fit the deployment. 0 = omit.
  uint64_t memory_budget_bytes = 0;
};

class PromptGenerator {
 public:
  // The persistent system message framing the conversation.
  static std::string SystemMessage();

  // One tuning-iteration user prompt.
  static std::string Generate(const PromptInputs& inputs);

  // One live-delta prompt for the online tuner (mid-run, mutable
  // options only, small-delta instructions).
  static std::string GenerateLiveDelta(const LiveDeltaInputs& inputs);
};

}  // namespace elmo::tune
