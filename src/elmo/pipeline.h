// The steps of the ELMo-Tune loop (paper §4.2, Figure 2) shared by
// TuningSession, the tournament's LLM contender and the OnlineTuner:
// probe the hardware, turn a prompt into a vetted candidate (LLM ->
// Option Evaluator -> Safeguard Enforcer), and crash-certify a
// candidate before it is kept.
#pragma once

#include <string>
#include <vector>

#include "elmo/safeguard.h"
#include "env/hardware_profile.h"
#include "llm/llm_client.h"
#include "lsm/options.h"
#include "stress_kit/stress_driver.h"
#include "sysinfo/system_probe.h"

namespace elmo::tune {

// Probes `hw` on its own throwaway SimEnv, so the probe does not
// disturb any benchmark clock.
sysinfo::SystemProfile ProbeSystem(const HardwareProfile& hw);

struct Proposal {
  std::string response;    // the LLM's raw answer
  SafeguardReport report;  // what the safeguard applied and rejected
  lsm::Options candidate;  // `base` with the applied changes
};

// One proposal: appends `prompt` to `chat`, asks `llm`, appends its
// answer, extracts the proposed options and vets them on top of `base`.
// Fails only when the LLM call fails; `chat` then ends with the prompt.
Status Propose(llm::LlmClient* llm, const SafeguardEnforcer& safeguard,
               const lsm::Options& base, const std::string& prompt,
               std::vector<llm::ChatMessage>* chat, Proposal* out);

// Crash certification: runs `candidate`, stripped of any live-DB
// wiring, through `ops` operations of the stress harness
// (FaultInjectionEnv, crash/reopen cycles, expected-state oracle).
// A configuration that loses acknowledged writes reports !ok.
stress::StressReport Certify(lsm::Options candidate, uint64_t ops);

}  // namespace elmo::tune
