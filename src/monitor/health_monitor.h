// HealthMonitor: the stateful live pipeline — every IntervalSample
// flows through the changepoint detector, confirmed anomalies and the
// recent sample window feed the diagnosis rules, and the result is a
// HealthReport (status + anomalies + ranked diagnoses) that backs the
// "elmo.health" DB property, the bench report section, and elmo_top.
// Deterministic: same sample stream in, byte-identical report out.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "lsm/stats_sampler.h"
#include "monitor/detector.h"
#include "monitor/diagnosis.h"
#include "util/json.h"
#include "util/status.h"

namespace elmo::monitor {

enum class HealthStatus : int {
  kOk = 0,
  kWarn = 1,
  kCritical = 2,
};

const char* HealthStatusName(HealthStatus s);

struct HealthReport {
  HealthStatus status = HealthStatus::kOk;
  uint64_t ts_us = 0;
  uint64_t intervals_observed = 0;
  std::vector<AnomalyEvent> anomalies;  // most recent last
  std::vector<Diagnosis> diagnoses;     // severity-ranked, top first

  // Multi-line human-readable rendering (bench report / prompt / CLI).
  std::string ToText() const;
  json::Object ToJson() const;
  static Status FromJson(const std::string& text, HealthReport* out);
};

struct MonitorConfig {
  DetectorConfig detector;
  EngineInfo engine;
  // Samples the diagnosis rules may look back over.
  size_t diagnosis_window = 8;
  // Anomalies retained in the report (oldest dropped).
  size_t anomaly_history = 32;
  // An anomaly this many ticks old no longer bumps status to kWarn.
  uint64_t warn_horizon_ticks = 8;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const MonitorConfig& config);

  // Feed one sample; returns the anomalies confirmed at this tick.
  std::vector<AnomalyEvent> Observe(const lsm::IntervalSample& s);

  // Report as of the last observed sample.
  HealthReport Report() const;

  const MonitorConfig& config() const { return config_; }

  // Re-point the diagnosis rules at a changed engine configuration
  // (DB::SetOptions retuned thresholds mid-run). Detector state and the
  // anomaly history are preserved — only future diagnoses see the new
  // triggers/capacities.
  void SetEngineInfo(const EngineInfo& engine);

 private:
  MonitorConfig config_;
  ChangepointDetector detector_;
  std::deque<lsm::IntervalSample> recent_;
  struct TimedAnomaly {
    AnomalyEvent event;
    uint64_t tick = 0;  // detector tick index when confirmed
  };
  std::deque<TimedAnomaly> anomalies_;
  uint64_t last_ts_us_ = 0;
};

}  // namespace elmo::monitor
