#include "monitor/offline.h"

#include <cstdio>

#include "lsm/options_schema.h"
#include "util/ini.h"
#include "util/json.h"

namespace elmo::monitor {

std::string OptionsChangeEvent::ToString() const {
  char buf[64];
  snprintf(buf, sizeof(buf), "[%llu us] %s:", (unsigned long long)ts_us,
           source.c_str());
  std::string out = buf;
  for (const Delta& d : deltas) {
    out += " " + d.name + " " + d.from + " -> " + d.to;
  }
  return out;
}

std::string HealthTimeline::ToText() const {
  std::string out;
  char buf[160];
  snprintf(buf, sizeof(buf), "health timeline: %zu ticks\n", entries.size());
  out += buf;
  for (const HealthTimelineEntry& e : entries) {
    // Quiet ok ticks are elided from the text rendering; the JSON keeps
    // every tick.
    if (e.events.empty() && e.status == HealthStatus::kOk) continue;
    snprintf(buf, sizeof(buf), "[%llu us] status=%s",
             (unsigned long long)e.ts_us, HealthStatusName(e.status));
    out += buf;
    if (!e.top_rule.empty()) {
      snprintf(buf, sizeof(buf), " top=%s (%.2f)", e.top_rule.c_str(),
               e.top_severity);
      out += buf;
    }
    out += "\n";
    for (const AnomalyEvent& ev : e.events) {
      out += "  " + ev.ToString() + "\n";
    }
  }
  out += "\nfinal report:\n";
  out += final_report.ToText();
  return out;
}

std::string HealthTimeline::ToJson() const {
  json::Object doc;
  json::Array arr;
  arr.reserve(entries.size());
  for (const HealthTimelineEntry& e : entries) {
    json::Object o;
    o["ts_us"] = static_cast<int64_t>(e.ts_us);
    o["status"] = HealthStatusName(e.status);
    if (!e.top_rule.empty()) {
      o["top_rule"] = e.top_rule;
      o["top_severity"] = e.top_severity;
    }
    json::Array evs;
    for (const AnomalyEvent& ev : e.events) evs.emplace_back(ev.ToJson());
    o["events"] = std::move(evs);
    arr.emplace_back(std::move(o));
  }
  doc["ticks"] = std::move(arr);
  doc["final_report"] = final_report.ToJson();
  return json::Value(std::move(doc)).Dump(2);
}

HealthTimeline AnalyzeHealthSeries(
    const std::vector<lsm::IntervalSample>& samples,
    const MonitorConfig& config) {
  HealthTimeline tl;
  HealthMonitor mon(config);
  tl.entries.reserve(samples.size());
  for (const lsm::IntervalSample& s : samples) {
    HealthTimelineEntry e;
    e.ts_us = s.ts_us;
    e.events = mon.Observe(s);
    HealthReport r = mon.Report();
    e.status = r.status;
    if (!r.diagnoses.empty()) {
      e.top_rule = r.diagnoses.front().rule;
      e.top_severity = r.diagnoses.front().severity;
    }
    tl.entries.push_back(std::move(e));
  }
  tl.final_report = mon.Report();
  return tl;
}

Status SamplesFromInfoLog(const std::string& text,
                          std::vector<lsm::IntervalSample>* samples,
                          lsm::Options* info,
                          std::vector<OptionsChangeEvent>* changes) {
  samples->clear();
  if (changes != nullptr) changes->clear();
  size_t pos = 0;
  size_t parsed_lines = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    json::Value obj;
    if (!json::Parse(line, &obj).ok() || !obj.is_object()) continue;
    parsed_lines++;
    const json::Value* event = obj.Find("event");
    if (event == nullptr || !event->is_string()) continue;
    if (event->as_string() == "sampler_tick") {
      // The sample's own ts was stripped before logging; the LOG line's
      // ts_us (same engine clock, same tick) stands in for it.
      samples->push_back(lsm::SampleFromJsonValue(obj));
    } else if (event->as_string() == "options" && info != nullptr) {
      const json::Value* ini = obj.Find("ini");
      if (ini != nullptr && ini->is_string()) {
        IniDoc doc;
        if (IniDoc::Parse(ini->as_string(), &doc).ok()) {
          lsm::Options opts;
          if (lsm::OptionsSchema::Instance().FromIni(doc, &opts).ok()) {
            *info = opts;
          }
        }
      }
    } else if (event->as_string() == "options_change" && changes != nullptr) {
      OptionsChangeEvent ch;
      const json::Value* ts = obj.Find("ts_us");
      if (ts != nullptr && ts->is_number()) {
        ch.ts_us = static_cast<uint64_t>(ts->as_int());
      }
      const json::Value* src = obj.Find("source");
      if (src != nullptr && src->is_string()) ch.source = src->as_string();
      const json::Value* deltas = obj.Find("deltas");
      if (deltas != nullptr && deltas->is_array()) {
        for (const json::Value& dv : deltas->as_array()) {
          if (!dv.is_object()) continue;
          OptionsChangeEvent::Delta d;
          const json::Value* name = dv.Find("name");
          const json::Value* from = dv.Find("from");
          const json::Value* to = dv.Find("to");
          if (name != nullptr && name->is_string()) d.name = name->as_string();
          if (from != nullptr && from->is_string()) d.from = from->as_string();
          if (to != nullptr && to->is_string()) d.to = to->as_string();
          ch.deltas.push_back(std::move(d));
        }
      }
      changes->push_back(std::move(ch));
    }
  }
  if (parsed_lines == 0) {
    return Status::Corruption("info LOG: no parseable JSONL lines");
  }
  return Status::OK();
}

namespace {

Status SamplesFromJsonDoc(const std::string& text,
                          std::vector<lsm::IntervalSample>* samples) {
  json::Value doc;
  Status s = json::Parse(text, &doc);
  if (!s.ok()) return s;
  if (!doc.is_object()) return Status::Corruption("not a JSON object");
  if (doc.Find("samples") != nullptr) {
    return lsm::TimeSeriesFromJson(text, samples);
  }
  // BenchResult JSON: timeseries embedded as a sub-document (or, in
  // older reports, an escaped string).
  const json::Value* ts = doc.Find("timeseries");
  if (ts == nullptr) {
    return Status::Corruption("JSON has neither samples nor timeseries");
  }
  const std::string inner = ts->is_string() ? ts->as_string() : ts->Dump();
  return lsm::TimeSeriesFromJson(inner, samples);
}

}  // namespace

Status LoadTelemetry(Env* env, const std::string& path,
                     std::vector<lsm::IntervalSample>* samples,
                     lsm::Options* info,
                     std::vector<OptionsChangeEvent>* changes) {
  samples->clear();
  if (changes != nullptr) changes->clear();
  std::string text;
  Status s = env->ReadFileToString(path, &text);
  if (!s.ok()) return s;
  size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    return Status::Corruption(path, "empty telemetry file");
  }
  if (text[first] == '#' || text.compare(first, 5, "elmo_") == 0) {
    return Status::InvalidArgument(
        path,
        "prometheus exposition carries no time series; point at a JSONL "
        "LOG or timeseries JSON");
  }
  if (text[first] == '{' && text.find('\n', first) > text.find('}', first)) {
    // Heuristic: a JSONL LOG is one object per line; a document spans
    // lines (or is a one-line object with no trailing lines). Try the
    // document parse first and fall back to JSONL.
    if (SamplesFromJsonDoc(text, samples).ok()) return Status::OK();
  }
  s = SamplesFromInfoLog(text, samples, info, changes);
  if (!s.ok()) {
    // Last resort: a (possibly pretty-printed) JSON document.
    Status doc_s = SamplesFromJsonDoc(text, samples);
    if (!doc_s.ok()) return s;
  }
  if (samples->empty()) {
    return Status::InvalidArgument(path, "no sampler ticks found");
  }
  return Status::OK();
}

Status RunHealthOffline(Env* env, const std::string& path,
                        MonitorConfig config, HealthTimeline* out) {
  std::vector<lsm::IntervalSample> samples;
  Status s = LoadTelemetry(env, path, &samples, &config.engine);
  if (!s.ok()) return s;
  *out = AnalyzeHealthSeries(samples, config);
  return Status::OK();
}

}  // namespace elmo::monitor
