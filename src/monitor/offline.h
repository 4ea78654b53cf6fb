// Offline health analysis: replay recorded telemetry — a JSONL info
// LOG (full `sampler_tick` events), an "elmo.timeseries" JSON document,
// or a BenchResult JSON with an embedded timeseries — through the same
// detector + diagnosis pipeline the live DB runs, producing a per-tick
// verdict timeline. Backs `elmo_dump health` and `elmo_top` on files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/stats_sampler.h"
#include "monitor/health_monitor.h"
#include "util/status.h"

namespace elmo::monitor {

// One applied SetOptions() batch replayed from the LOG's
// `options_change` events: who applied it and each name's from -> to.
struct OptionsChangeEvent {
  struct Delta {
    std::string name;
    std::string from;
    std::string to;
  };
  uint64_t ts_us = 0;
  std::string source;  // "set_options", "online_tuner", "recovery", ...
  std::vector<Delta> deltas;

  std::string ToString() const;
};

struct HealthTimelineEntry {
  uint64_t ts_us = 0;
  std::vector<AnomalyEvent> events;  // confirmed at this tick
  HealthStatus status = HealthStatus::kOk;
  std::string top_rule;      // empty when no diagnosis active
  double top_severity = 0;
};

struct HealthTimeline {
  std::vector<HealthTimelineEntry> entries;  // one per tick
  HealthReport final_report;

  std::string ToText() const;
  std::string ToJson() const;
};

// Run a fresh HealthMonitor over a whole series. Timeline entries for
// quiet ticks with kOk status are still recorded (callers may filter).
HealthTimeline AnalyzeHealthSeries(
    const std::vector<lsm::IntervalSample>& samples,
    const MonitorConfig& config);

// Parse `sampler_tick` events out of a JSONL info LOG. When the LOG's
// "options" event is present, *info is set from its ini text so the
// diagnosis rules use the recorded DB's actual triggers. When `changes`
// is non-null it collects the LOG's `options_change` events (dynamic
// SetOptions batches) in recording order.
Status SamplesFromInfoLog(const std::string& text,
                          std::vector<lsm::IntervalSample>* samples,
                          lsm::Options* info,
                          std::vector<OptionsChangeEvent>* changes = nullptr);

// Load telemetry samples from `path` (sniffed: JSONL LOG, timeseries
// JSON document, or BenchResult JSON with "timeseries"). Refines *info
// from the LOG's "options" event when present; Prometheus exposition is
// rejected (it carries no time series). `changes`, when non-null, is
// filled from JSONL LOG sources (the other formats carry no
// options_change events).
Status LoadTelemetry(Env* env, const std::string& path,
                     std::vector<lsm::IntervalSample>* samples,
                     lsm::Options* info,
                     std::vector<OptionsChangeEvent>* changes = nullptr);

// LoadTelemetry + AnalyzeHealthSeries. `config.engine` is the fallback
// when the source does not record options.
Status RunHealthOffline(Env* env, const std::string& path,
                        MonitorConfig config, HealthTimeline* out);

}  // namespace elmo::monitor
