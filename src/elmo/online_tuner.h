// OnlineTuner: the live full-cycle tuning session. Where TuningSession
// restarts the DB once per iteration, this watches an OPEN DB's sampler
// ring mid-run, waits for the health monitor to flag a workload phase
// shift (or a severe diagnosis), asks the LLM for a *delta* over the
// runtime-mutable option subset (deterministic heuristic fallback), and
// applies it through DB::SetOptions() — guarded by the crash-
// certification gate and an automatic-rollback verdict: a throughput
// collapse in the post-apply window that no concurrent phase shift
// explains reverts the delta and blacklists it against oscillation.
//
// Every observe -> propose -> apply -> verdict step lands in a timeline
// (engine-clock timestamps only), so same-seed SimEnv runs produce
// byte-identical timelines.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/stats_sampler.h"
#include "llm/llm_client.h"
#include "monitor/health_monitor.h"
#include "util/json.h"

namespace elmo::tune {

struct OnlineTunerConfig {
  // Memory the DB may spend on memtables + block cache combined
  // (Options::ConfiguredMemoryFootprint()). When set, proposals are
  // shrunk to fit before they reach SetOptions, the heuristic shifts
  // this budget between the write and read side per phase, and the
  // live-delta prompt states it. 0 = no budget (relative steps only).
  // InjectDelta bypasses the clamp: manual deltas apply verbatim.
  uint64_t memory_budget_bytes = 0;
  // Crash certification: run each candidate through the stress harness
  // (FaultInjectionEnv + crash/reopen cycles) before applying. A config
  // that loses acknowledged writes is never applied. 0 ops disables.
  uint64_t certify_ops = 0;
};

// One timeline entry; kind is "observe", "propose", "apply",
// "verdict", "rollback" or "oscillation_skip".
struct TimelineStep {
  uint64_t ts_us = 0;
  std::string kind;
  json::Object detail;
};

class OnlineTuner {
 public:
  // `db` must outlive the tuner. `llm` may be null: proposals then come
  // from the deterministic heuristic alone.
  OnlineTuner(lsm::DB* db, llm::LlmClient* llm,
              const OnlineTunerConfig& config = {});

  // The observation point: call periodically from the serving thread
  // (BenchRunner::RunWithHook does). Consumes any sampler intervals
  // recorded since the last call and advances the state machine. Cheap
  // when no new interval landed.
  void Poll();

  // Push a delta through the tuner's own apply path — baseline capture,
  // timeline step, and the same rollback verdict machinery as an
  // organic proposal. Used to plant harmful deltas in tests and for
  // manual operation. Fails with the SetOptions() validation error, or
  // Aborted when crash certification rejects the delta.
  Status InjectDelta(const std::map<std::string, std::string>& delta,
                     const std::string& origin);

  int applied_deltas() const { return applied_deltas_; }
  int rollbacks() const { return rollbacks_; }
  // Times a previously rolled-back delta was proposed again (the
  // rollback-loop smell the CI smoke asserts stays at zero).
  int oscillations() const { return oscillations_; }
  const std::vector<TimelineStep>& timeline() const { return timeline_; }

  // {"applied":N,"rollbacks":N,"oscillations":N,"steps":[...]}
  json::Object TimelineJson() const;

 private:
  // (ops + seeks) / interval — phase-robust rate, matching the
  // detector's kOpsPerSec metric.
  static double SampleRate(const lsm::IntervalSample& s);
  static std::string DeltaSignature(
      const std::map<std::string, std::string>& delta);

  void StepOnSample(const lsm::IntervalSample& s);
  void CheckTrigger(const lsm::IntervalSample& s);
  void VerifySample(const lsm::IntervalSample& s);

  // Delta construction: LLM live-delta prompt first (filtered to the
  // mutable subset), deterministic mix/diagnosis heuristic otherwise;
  // either is clamped to the budget and stripped of no-op entries.
  std::map<std::string, std::string> ProposeDelta(
      const lsm::IntervalSample& s, const std::string& trigger,
      const std::vector<monitor::Diagnosis>& diagnoses,
      std::string* origin);
  std::map<std::string, std::string> LlmDelta(const std::string& trigger);
  std::map<std::string, std::string> HeuristicDelta(
      const lsm::IntervalSample& s,
      const std::vector<monitor::Diagnosis>& diagnoses) const;
  // Shrink the delta's byte-size entries proportionally until the
  // resulting ConfiguredMemoryFootprint() fits memory_budget_bytes;
  // no-op without a budget.
  void ClampToBudget(std::map<std::string, std::string>* delta) const;
  // Drops entries equal to the live value.
  void DropNoOps(std::map<std::string, std::string>* delta) const;

  // Apply `delta` (certify gate first), arm the verdict machinery. Fails
  // when certification or SetOptions() rejects the delta.
  Status ApplyDelta(const std::map<std::string, std::string>& delta,
                    const std::string& origin, uint64_t ts_us,
                    double baseline);
  void Rollback(const lsm::IntervalSample& s);

  bool PhaseShiftNear(uint64_t ts_us) const;
  void AddStep(uint64_t ts_us, const std::string& kind,
               json::Object detail);

  lsm::DB* const db_;
  llm::LlmClient* const llm_;
  const OnlineTunerConfig cfg_;
  uint64_t sample_interval_us_;

  bool attached_ = false;  // first Poll() seeded the ring as context
  bool degraded_ = false;  // paused on an active background error
  uint64_t last_sample_ts_ = 0;
  uint64_t last_trigger_ts_ = 0;
  bool kicked_off_ = false;  // a first, mix-fitted delta went out
  std::string last_diag_rule_;
  std::deque<lsm::IntervalSample> recent_;

  // Verdict state for the delta under observation.
  bool verifying_ = false;
  double baseline_rate_ = 0;
  int verify_seen_ = 0;
  int strikes_ = 0;
  std::map<std::string, std::string> active_delta_;
  std::map<std::string, std::string> revert_delta_;
  std::string active_origin_;

  int cooldown_left_ = 0;
  std::set<std::string> rolled_back_;  // delta signatures
  std::vector<std::string> delta_history_;

  int applied_deltas_ = 0;
  int rollbacks_ = 0;
  int oscillations_ = 0;
  std::vector<TimelineStep> timeline_;
};

}  // namespace elmo::tune
