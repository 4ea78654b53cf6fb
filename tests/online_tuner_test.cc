// OnlineTuner golden tests on SimEnv bench runs: the phased workload's
// observe -> propose -> apply flow (deltas land within a few sampler
// intervals of each detected phase shift), byte-identical timelines
// across same-seed runs, and automatic rollback of a planted harmful
// delta that collapses throughput with no phase shift to blame.
#include "elmo/online_tuner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_kit/bench_runner.h"
#include "env/device_model.h"
#include "env/hardware_profile.h"
#include "env/sim_env.h"
#include "llm/expert_llm.h"

namespace elmo::tune {
namespace {

// The bench runs /64-scaled capacities; the tuner's budget is the
// bench-scale share of what the box leaves after the OS baseline.
uint64_t BenchBudget(const HardwareProfile& hw) {
  return (hw.memory_bytes - SimEnv::kOsBaselineBytes) /
         bench::kCapacityScale;
}

struct OnlineRun {
  bench::BenchResult result;
  std::unique_ptr<OnlineTuner> tuner;
};

// One phased bench run with a live tuner on the hook; `llm` may be
// null (heuristic proposals only).
OnlineRun RunPhasedOnline(llm::LlmClient* llm) {
  OnlineRun run;
  const auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  bench::BenchRunner runner(hw, /*seed=*/42);
  OnlineTunerConfig cfg;
  cfg.memory_budget_bytes = BenchBudget(hw);
  lsm::DB* tuner_db = nullptr;
  auto hook = [&](lsm::DB* db, uint64_t) {
    if (db != tuner_db) {
      tuner_db = db;
      run.tuner = std::make_unique<OnlineTuner>(db, llm, cfg);
    }
    run.tuner->Poll();
  };
  run.result = runner.RunWithHook(bench::WorkloadSpec::Phased(),
                                  lsm::Options(), hook);
  return run;
}

std::string StepString(const TimelineStep& step, const char* key) {
  auto it = step.detail.find(key);
  if (it == step.detail.end() || !it->second.is_string()) return "";
  return it->second.as_string();
}

TEST(OnlineTuner, PhasedSessionAppliesDeltasAtEachShift) {
  llm::ExpertConfig ecfg;
  ecfg.seed = 42;
  llm::SimulatedExpertLlm expert(ecfg);
  OnlineRun run = RunPhasedOnline(&expert);
  ASSERT_NE(nullptr, run.tuner);

  EXPECT_GE(run.tuner->applied_deltas(), 2);
  EXPECT_EQ(0, run.tuner->rollbacks());
  EXPECT_EQ(0, run.tuner->oscillations());

  // Every detected phase shift gets a delta within 3 sampler intervals
  // (the bench sampler runs at 250 ms).
  const uint64_t kWindowUs = 3 * 250000;
  const auto& steps = run.tuner->timeline();
  int shifts = 0;
  for (size_t i = 0; i < steps.size(); i++) {
    if (steps[i].kind != "observe" ||
        StepString(steps[i], "trigger").rfind("phase shift", 0) != 0) {
      continue;
    }
    shifts++;
    bool applied = false;
    for (size_t j = i + 1; j < steps.size(); j++) {
      if (steps[j].ts_us > steps[i].ts_us + kWindowUs) break;
      if (steps[j].kind == "apply" &&
          steps[j].detail.find("error") == steps[j].detail.end()) {
        applied = true;
        break;
      }
    }
    EXPECT_TRUE(applied) << "phase shift at t=" << steps[i].ts_us
                         << "us got no delta within 3 intervals";
  }
  // The three-phase workload has two mix changes; the detector must
  // have confirmed at least one for the golden flow to mean anything.
  EXPECT_GE(shifts, 1);

  // The session also kicks off a cold-start fit before any shift.
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ("observe", steps.front().kind);
  EXPECT_EQ("session start: fitting the live mix",
            StepString(steps.front(), "trigger"));
}

TEST(OnlineTuner, TimelineIsDeterministicAcrossSameSeedRuns) {
  llm::ExpertConfig ecfg;
  ecfg.seed = 42;
  llm::SimulatedExpertLlm expert_a(ecfg);
  llm::SimulatedExpertLlm expert_b(ecfg);
  OnlineRun a = RunPhasedOnline(&expert_a);
  OnlineRun b = RunPhasedOnline(&expert_b);
  ASSERT_NE(nullptr, a.tuner);
  ASSERT_NE(nullptr, b.tuner);
  EXPECT_EQ(json::Value(a.tuner->TimelineJson()).Dump(),
            json::Value(b.tuner->TimelineJson()).Dump());
  EXPECT_EQ(a.result.ops_per_sec, b.result.ops_per_sec);
}

TEST(OnlineTuner, CertifiedDeltaIsApplied) {
  // With certify_ops set, every delta passes the crash-certification
  // gate (stress harness, crash/reopen cycles) before SetOptions.
  const auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  bench::BenchRunner runner(hw, /*seed=*/42);
  OnlineTunerConfig cfg;
  cfg.memory_budget_bytes = BenchBudget(hw);
  cfg.certify_ops = 400;
  std::unique_ptr<OnlineTuner> tuner;
  lsm::DB* tuner_db = nullptr;
  auto hook = [&](lsm::DB* db, uint64_t) {
    if (db != tuner_db) {
      tuner_db = db;
      tuner = std::make_unique<OnlineTuner>(db, nullptr, cfg);
    }
    tuner->Poll();
  };
  runner.RunWithHook(bench::WorkloadSpec::FillRandom(60000), lsm::Options(),
                     hook);
  ASSERT_NE(nullptr, tuner);
  EXPECT_GE(tuner->applied_deltas(), 1);
  int certified_applies = 0;
  for (const TimelineStep& step : tuner->timeline()) {
    EXPECT_NE("certify_failed", StepString(step, "result"));
    if (step.kind != "apply") continue;
    EXPECT_EQ(step.detail.end(), step.detail.find("error"));
    auto ops = step.detail.find("certified_ops");
    ASSERT_NE(step.detail.end(), ops) << "apply without certification";
    EXPECT_EQ(400, ops->second.as_int());
    certified_applies++;
  }
  EXPECT_EQ(tuner->applied_deltas(), certified_applies);
}

TEST(OnlineTuner, PlantedHarmfulDeltaIsRolledBack) {
  // Steady fillrandom: no phase shift ever excuses a collapse. Once the
  // organic cold-start delta is out, plant a 64 KiB write buffer — a
  // flush-storm config the verdict machinery must revert on its own.
  const auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  bench::BenchRunner runner(hw, /*seed=*/42);
  OnlineTunerConfig cfg;
  cfg.memory_budget_bytes = BenchBudget(hw);
  std::unique_ptr<OnlineTuner> tuner;
  lsm::DB* tuner_db = nullptr;
  bool planted = false;
  auto hook = [&](lsm::DB* db, uint64_t) {
    if (db != tuner_db) {
      tuner_db = db;
      tuner = std::make_unique<OnlineTuner>(db, nullptr, cfg);
    }
    tuner->Poll();
    if (!planted) {
      for (const TimelineStep& step : tuner->timeline()) {
        if (step.kind == "apply") {
          ASSERT_TRUE(
              tuner->InjectDelta({{"write_buffer_size", "65536"}}, "planted")
                  .ok());
          planted = true;
          break;
        }
      }
    }
  };
  runner.RunWithHook(bench::WorkloadSpec::FillRandom(240000),
                     lsm::Options(), hook);
  ASSERT_NE(nullptr, tuner);
  ASSERT_TRUE(planted);

  EXPECT_GE(tuner->rollbacks(), 1);
  bool saw_rollback = false;
  for (const TimelineStep& step : tuner->timeline()) {
    if (step.kind == "rollback" && StepString(step, "origin") == "planted") {
      saw_rollback = true;
    }
  }
  EXPECT_TRUE(saw_rollback);
  // The planted delta is blacklisted, not retried: no oscillation loop.
  EXPECT_EQ(0, tuner->oscillations());
}

}  // namespace
}  // namespace elmo::tune
