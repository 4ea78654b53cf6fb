#include "elmo/pipeline.h"

#include "elmo/option_evaluator.h"
#include "env/sim_env.h"

namespace elmo::tune {

namespace {

constexpr int kCertifyCrashCycles = 2;
constexpr uint64_t kCertifySeed = 42;

}  // namespace

sysinfo::SystemProfile ProbeSystem(const HardwareProfile& hw) {
  SimEnv probe_env(hw, /*seed=*/1);
  return sysinfo::SystemProbe::Collect(&probe_env, "/probe");
}

Status Propose(llm::LlmClient* llm, const SafeguardEnforcer& safeguard,
               const lsm::Options& base, const std::string& prompt,
               std::vector<llm::ChatMessage>* chat, Proposal* out) {
  chat->push_back({"user", prompt});
  Status s = llm->Complete(*chat, &out->response);
  if (!s.ok()) return s;
  chat->push_back({"assistant", out->response});

  ExtractedProposals proposals = OptionEvaluator::Extract(out->response);
  out->report = safeguard.Validate(base, proposals.pairs, &out->candidate);
  out->report.format_ok =
      out->report.format_ok &&
      (proposals.had_code_block || !proposals.pairs.empty());
  return Status::OK();
}

stress::StressReport Certify(lsm::Options candidate, uint64_t ops) {
  // The stress harness builds its own env, log and listeners.
  candidate.env = nullptr;
  candidate.info_log = nullptr;
  candidate.listeners.clear();
  candidate.metrics_export_path.clear();
  candidate.recover_persisted_options = false;
  stress::StressConfig scfg;
  scfg.seed = kCertifySeed;
  scfg.ops = ops;
  scfg.crash_cycles = kCertifyCrashCycles;
  scfg.base_options = candidate;
  scfg.db_path = "/certify_db";
  return stress::RunStress(scfg);
}

}  // namespace elmo::tune
