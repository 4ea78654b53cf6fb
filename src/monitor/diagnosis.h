// Rule-based root-cause engine: correlates detector anomalies with the
// latest IntervalSample (per-level files, memtable pressure, compaction
// debt, cache behavior, span-phase shares) and the engine's static
// option values to emit ranked Diagnosis verdicts — symptom, cause,
// concrete evidence strings, and the options a tuner should move.
// Pure functions of their inputs: deterministic, no clock, no state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/options.h"
#include "lsm/stats_sampler.h"
#include "monitor/detector.h"
#include "util/json.h"

namespace elmo::monitor {

struct Diagnosis {
  std::string rule;     // stable identifier, e.g. "l0_compaction_backlog"
  double severity = 0;  // 0..1; report status derives from the max
  std::string symptom;
  std::string cause;
  std::vector<std::string> evidence;
  std::vector<std::string> suggested_options;

  std::string ToString() const;
  json::Object ToJson() const;
};

// Evaluate every rule against the latest sample (`recent.back()`),
// using `recent` for short-horizon context, `anomalies` for events
// confirmed in the diagnosis window and `info` for the engine's static
// option values (the live DB's options, or those a replayed LOG
// recorded). Returns diagnoses sorted by severity (desc), rule name as
// the deterministic tie-break.
std::vector<Diagnosis> Diagnose(
    const std::vector<lsm::IntervalSample>& recent,
    const std::vector<AnomalyEvent>& anomalies, const lsm::Options& info);

}  // namespace elmo::monitor
