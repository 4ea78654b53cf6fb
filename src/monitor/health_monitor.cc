#include "monitor/health_monitor.h"

#include <algorithm>

namespace elmo::monitor {

const char* HealthStatusName(HealthStatus s) {
  switch (s) {
    case HealthStatus::kOk: return "ok";
    case HealthStatus::kWarn: return "warn";
    case HealthStatus::kCritical: return "critical";
  }
  return "unknown";
}

namespace {

HealthStatus StatusFromName(const std::string& name) {
  if (name == "critical") return HealthStatus::kCritical;
  if (name == "warn") return HealthStatus::kWarn;
  return HealthStatus::kOk;
}

}  // namespace

std::string HealthReport::ToText() const {
  std::string out = "health: ";
  out += HealthStatusName(status);
  out += " (" + std::to_string(intervals_observed) + " intervals)\n";
  if (anomalies.empty()) {
    out += "anomalies: none\n";
  } else {
    out += "anomalies (" + std::to_string(anomalies.size()) + "):\n";
    for (const AnomalyEvent& e : anomalies) {
      out += "  " + e.ToString() + "\n";
    }
  }
  if (diagnoses.empty()) {
    out += "diagnoses: none\n";
  } else {
    out += "diagnoses (ranked):\n";
    for (const Diagnosis& d : diagnoses) {
      out += "  " + d.ToString() + "\n";
    }
  }
  return out;
}

json::Object HealthReport::ToJson() const {
  json::Object o;
  o["status"] = HealthStatusName(status);
  o["ts_us"] = static_cast<int64_t>(ts_us);
  o["intervals_observed"] = static_cast<int64_t>(intervals_observed);
  json::Array an;
  for (const AnomalyEvent& e : anomalies) an.emplace_back(e.ToJson());
  o["anomalies"] = std::move(an);
  json::Array di;
  for (const Diagnosis& d : diagnoses) di.emplace_back(d.ToJson());
  o["diagnoses"] = std::move(di);
  return o;
}

Status HealthReport::FromJson(const std::string& text, HealthReport* out) {
  json::Value doc;
  Status s = json::Parse(text, &doc);
  if (!s.ok()) return s;
  if (!doc.is_object()) return Status::Corruption("health: not an object");
  *out = HealthReport();
  const json::Value* v;
  if ((v = doc.Find("status")) != nullptr && v->is_string()) {
    out->status = StatusFromName(v->as_string());
  }
  if ((v = doc.Find("ts_us")) != nullptr && v->is_number()) {
    out->ts_us = static_cast<uint64_t>(v->as_int());
  }
  if ((v = doc.Find("intervals_observed")) != nullptr && v->is_number()) {
    out->intervals_observed = static_cast<uint64_t>(v->as_int());
  }
  if ((v = doc.Find("anomalies")) != nullptr && v->is_array()) {
    for (const json::Value& e : v->as_array()) {
      if (e.is_object()) out->anomalies.push_back(AnomalyEventFromJson(e));
    }
  }
  if ((v = doc.Find("diagnoses")) != nullptr && v->is_array()) {
    for (const json::Value& d : v->as_array()) {
      if (d.is_object()) out->diagnoses.push_back(DiagnosisFromJson(d));
    }
  }
  return Status::OK();
}

HealthMonitor::HealthMonitor(const MonitorConfig& config)
    : config_(config), detector_(config.detector) {}

void HealthMonitor::SetEngineInfo(const EngineInfo& engine) {
  config_.engine = engine;
}

std::vector<AnomalyEvent> HealthMonitor::Observe(
    const lsm::IntervalSample& s) {
  std::vector<AnomalyEvent> events = detector_.Observe(s);
  last_ts_us_ = s.ts_us;
  recent_.push_back(s);
  while (recent_.size() > config_.diagnosis_window) recent_.pop_front();
  for (const AnomalyEvent& e : events) {
    anomalies_.push_back({e, detector_.ticks_observed()});
  }
  while (anomalies_.size() > config_.anomaly_history) anomalies_.pop_front();
  return events;
}

HealthReport HealthMonitor::Report() const {
  HealthReport r;
  r.ts_us = last_ts_us_;
  r.intervals_observed = detector_.ticks_observed();
  // Anomalies confirmed within the diagnosis lookback drive the rules;
  // the full retained history goes in the report.
  std::vector<AnomalyEvent> window_anomalies;
  const uint64_t now_tick = detector_.ticks_observed();
  for (const TimedAnomaly& t : anomalies_) {
    r.anomalies.push_back(t.event);
    if (now_tick - t.tick < config_.diagnosis_window) {
      window_anomalies.push_back(t.event);
    }
  }
  r.diagnoses =
      Diagnose(std::vector<lsm::IntervalSample>(recent_.begin(),
                                                recent_.end()),
               window_anomalies, config_.engine);

  double top_severity = 0;
  for (const Diagnosis& d : r.diagnoses) {
    top_severity = std::max(top_severity, d.severity);
  }
  bool recent_anomaly = false;
  for (const TimedAnomaly& t : anomalies_) {
    if (now_tick - t.tick < config_.warn_horizon_ticks) {
      recent_anomaly = true;
      break;
    }
  }
  if (top_severity >= 0.75) {
    r.status = HealthStatus::kCritical;
  } else if (top_severity >= 0.4 || recent_anomaly) {
    r.status = HealthStatus::kWarn;
  } else {
    r.status = HealthStatus::kOk;
  }
  return r;
}

}  // namespace elmo::monitor
