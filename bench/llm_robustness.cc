// Robustness extension (paper §3/§6 discussion, not a numbered table):
// sweep the simulated LLM's fault rates and measure how the Safeguard
// Enforcer + Active Flagger hold the tuning outcome together. The
// paper argues safeguards are essential; this bench quantifies it.
#include "bench/bench_common.h"

using namespace elmo;
using namespace elmo::benchmain;

int main() {
  PrintHeader(
      "LLM robustness: tuning outcome vs fault injection rate",
      "paper §3 (challenges) / §4.2 (Safeguard Enforcer) — extension");

  const auto hw = HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
  const auto spec = bench::WorkloadSpec::FillRandom(200000);

  printf("%-28s | %9s | %9s | %6s | %7s | %7s | %7s\n", "fault profile",
         "baseline", "tuned", "gain", "halluc", "blocked", "invalid");

  struct Profile {
    const char* name;
    double hallucination, deprecated, blacklist;
  };
  const Profile profiles[] = {
      {"clean (no faults)", 0.0, 0.0, 0.0},
      {"paper-like (default)", 0.20, 0.15, 0.10},
      {"flaky (50% each)", 0.50, 0.50, 0.50},
      {"adversarial (always)", 1.0, 1.0, 1.0},
  };

  for (const auto& p : profiles) {
    bench::BenchRunner runner(hw);
    llm::ExpertConfig ecfg;
    ecfg.seed = 777;
    ecfg.hallucination_rate = p.hallucination;
    ecfg.deprecated_rate = p.deprecated;
    ecfg.blacklist_poke_rate = p.blacklist;
    llm::SimulatedExpertLlm gpt(ecfg);
    tune::TuningSession session(&runner, &gpt, spec);
    auto out = session.Run();
    ReportErrors(p.name, SessionErrors(out));

    int halluc = 0, blocked = 0, invalid = 0;
    for (const auto& it : out.iterations) {
      halluc += static_cast<int>(it.safeguard.rejected_unknown.size() +
                                 it.safeguard.rejected_deprecated.size());
      blocked += static_cast<int>(it.safeguard.rejected_blacklisted.size());
      invalid += static_cast<int>(it.safeguard.rejected_invalid.size());
    }
    printf("%-28s | %9.0f | %9.0f | %5.2fx | %7d | %7d | %7d\n", p.name,
           out.baseline.ops_per_sec, out.best_result.ops_per_sec,
           out.ThroughputGain(), halluc, blocked, invalid);
  }

  printf("\nInvariant: with safeguards active, even an adversarial "
         "responder can never make the kept configuration worse than "
         "the out-of-box baseline (the Active Flagger reverts "
         "regressions; the blacklist protects durability).\n");
  return 0;
}
