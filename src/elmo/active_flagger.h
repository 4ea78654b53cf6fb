// ActiveFlagger: ELMo-Tune's keep-or-revert judge plus the constant
// benchmark monitor that aborts a clearly-regressing run early (the
// paper's "first 30s" redo check).
#pragma once

#include <string>

#include "bench_kit/report.h"

namespace elmo::tune {

struct FlaggerDecision {
  bool keep = false;
  std::string reason;
};

// Outcome of the probe screen: whether to abort, and why.
struct ProbeVerdict {
  bool abort = false;
  std::string reason;
};

class ActiveFlagger {
 public:
  // Keeps a candidate that beats the best throughput, or one that holds
  // it while improving tail latency. A run with errors is never kept.
  static FlaggerDecision Judge(const bench::BenchResult& best,
                               const bench::BenchResult& candidate);

  // The probe screen: aborts a probe with errors, one whose throughput
  // falls below half the best's, or one whose time series collapses
  // mid-probe below that floor with no workload phase shift to blame.
  static ProbeVerdict JudgeProbe(const bench::BenchResult& best,
                                 const bench::BenchResult& probe);
};

}  // namespace elmo::tune
