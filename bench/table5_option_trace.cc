// Table 5: the option-change trace — which options the LLM modified at
// each iteration for fillrandom on SATA HDD with 2 CPUs + 4 GiB
// (paper: 23 options touched by iteration 7, 15 shown).
#include <set>

#include "bench/bench_common.h"
#include "elmo/history_export.h"

using namespace elmo;
using namespace elmo::benchmain;

int main() {
  const auto hw = HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
  const auto spec = bench::WorkloadSpec::FillRandom(400000);
  fprintf(stderr, "tuning fillrandom on %s ...\n", hw.Label().c_str());
  TunedRun run = RunCell(hw, spec, /*seed=*/4242);

  std::set<std::string> touched;
  for (const auto& it : run.outcome.iterations) {
    for (const auto& [name, value] : it.applied_changes) touched.insert(name);
  }

  PrintHeader("Table 5: Changes in options over iterations by the LLM",
              "paper Table 5");
  printf("fillrandom on SATA HDD, 2 CPUs + 4 GiB; %zu distinct options "
         "touched across %zu iterations\n\n",
         touched.size(), run.outcome.iterations.size());
  printf("%s", tune::ExportOptionTraceMarkdown(run.outcome).c_str());
  printf("\n(\\* = iteration was reverted by the Active Flagger)\n");

  printf("\nSafeguard interventions during the trace:\n");
  for (const auto& it : run.outcome.iterations) {
    if (it.safeguard.total_rejected() > 0) {
      printf("  iteration %d: %s\n", it.iteration,
             it.safeguard.Summary().c_str());
    }
  }

  printf("\nFinal tuned configuration:\n%s",
         run.outcome.final_options_file.c_str());
  return 0;
}
