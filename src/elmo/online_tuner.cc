#include "elmo/online_tuner.h"

#include <algorithm>
#include <cstdlib>

#include "elmo/pipeline.h"
#include "elmo/prompt_generator.h"
#include "lsm/options_schema.h"

namespace elmo::tune {

namespace {

// Growth caps for the heuristic: the tuner moves the memory budget
// between memtables and cache per phase; caps keep a flapping workload
// from ratcheting either side without bound.
constexpr uint64_t kMinByteSize = 64ull << 10;
constexpr uint64_t kMaxWriteBufferSize = 64ull << 20;
constexpr uint64_t kMaxBlockCacheSize = 256ull << 20;

// Post-apply samples observed before a surviving delta is kept.
constexpr int kVerifyWindow = 6;
// A post-apply sample below kRollbackDropFraction * baseline, with no
// phase shift within two sampler intervals to blame, is a strike;
// kStrikesToRollback strikes revert the delta.
constexpr double kRollbackDropFraction = 0.5;
constexpr int kStrikesToRollback = 2;
// Sampler intervals to sit out after a verdict before re-triggering.
constexpr int kCooldownIntervals = 2;
// Diagnoses at or above this severity trigger a proposal even without a
// phase-shift anomaly (the monitor's suggested_options seed it).
constexpr double kDiagnosisSeverityThreshold = 0.8;

std::string U64(uint64_t v) { return std::to_string(v); }

}  // namespace

OnlineTuner::OnlineTuner(lsm::DB* db, llm::LlmClient* llm,
                         const OnlineTunerConfig& config)
    : db_(db), llm_(llm), cfg_(config),
      sample_interval_us_(
          db->options().stats_sample_interval_ms * 1000) {}

double OnlineTuner::SampleRate(const lsm::IntervalSample& s) {
  if (s.interval_us == 0) return 0;
  return (s.ops + s.seeks) / (s.interval_us / 1e6);
}

std::string OnlineTuner::DeltaSignature(
    const std::map<std::string, std::string>& delta) {
  std::string sig;
  for (const auto& [k, v] : delta) sig += k + "=" + v + ";";
  return sig;
}

void OnlineTuner::AddStep(uint64_t ts_us, const std::string& kind,
                          json::Object detail) {
  TimelineStep step;
  step.ts_us = ts_us;
  step.kind = kind;
  step.detail = std::move(detail);
  timeline_.push_back(std::move(step));
}

bool OnlineTuner::PhaseShiftNear(uint64_t ts_us) const {
  const std::optional<monitor::HealthReport> report = db_->GetHealth();
  if (!report) return false;
  const uint64_t slack = 2 * std::max<uint64_t>(sample_interval_us_, 1);
  for (const auto& e : report->anomalies) {
    if (!e.phase_shift) continue;
    const uint64_t d = e.ts_us > ts_us ? e.ts_us - ts_us : ts_us - e.ts_us;
    if (d <= slack) return true;
  }
  return false;
}

void OnlineTuner::Poll() {
  const lsm::TimeSeries series = db_->GetTimeSeries();
  if (series.interval_us > 0) sample_interval_us_ = series.interval_us;
  const std::vector<lsm::IntervalSample>& samples = series.samples;

  // The ring is bounded drop-oldest; everything past the last consumed
  // timestamp is new.
  size_t first_new = samples.size();
  while (first_new > 0 && samples[first_new - 1].ts_us > last_sample_ts_) {
    first_new--;
  }
  // On the first look, whatever the ring holds predates this session
  // (a bulk load, another tuner's era). Take it as context for the
  // prompt but do not act on it — acting starts with the first interval
  // observed live, so baselines measure this era's traffic.
  const bool live = attached_;
  attached_ = true;
  for (size_t i = first_new; i < samples.size(); i++) {
    last_sample_ts_ = samples[i].ts_us;
    recent_.push_back(samples[i]);
    while (recent_.size() > 16) recent_.pop_front();
    if (live) StepOnSample(samples[i]);
  }
}

void OnlineTuner::StepOnSample(const lsm::IntervalSample& s) {
  if (s.bg_error_severity > 0) {
    // The engine is degraded by a background error: tuning now would
    // chase error-shaped throughput, and a verdict would blame the
    // active delta for the outage. Pause until the error clears (the
    // engine's auto-resume, or an operator Resume()/reopen).
    if (!degraded_) {
      degraded_ = true;
      json::Object o;
      o["bg_error_severity"] = s.bg_error_severity;
      AddStep(s.ts_us, "degraded_pause", std::move(o));
    }
    return;
  }
  if (degraded_) {
    degraded_ = false;
    json::Object o;
    o["intervals_degraded"] = true;
    AddStep(s.ts_us, "degraded_resume", std::move(o));
    // The degraded intervals are not representative of any delta or
    // phase; cool down so triggers and verdicts restart on clean data.
    if (verifying_) {
      json::Object verdict;
      verdict["origin"] = active_origin_;
      verdict["result"] = "superseded_by_background_error";
      AddStep(s.ts_us, "verdict", std::move(verdict));
      verifying_ = false;
    }
    cooldown_left_ = std::max(cooldown_left_, 1);
  }
  if (verifying_) {
    VerifySample(s);
    return;
  }
  if (cooldown_left_ > 0) {
    cooldown_left_--;
    return;
  }
  CheckTrigger(s);
}

void OnlineTuner::CheckTrigger(const lsm::IntervalSample& s) {
  // Without a health monitor there are no anomalies or diagnoses: only
  // the cold-start trigger can fire.
  const monitor::HealthReport report =
      db_->GetHealth().value_or(monitor::HealthReport{});

  // Primary trigger: a workload phase shift the detector confirmed
  // since the last handled trigger.
  const monitor::AnomalyEvent* shift = nullptr;
  for (const auto& e : report.anomalies) {
    if (e.phase_shift && e.ts_us > last_trigger_ts_) shift = &e;
  }

  std::string trigger;
  if (shift != nullptr) {
    trigger = "phase shift: " + shift->ToString();
    last_trigger_ts_ = shift->ts_us;
  } else if (!kicked_off_ && s.ops + s.seeks + s.writes > 0) {
    // Cold start: the session begins on whatever configuration the DB
    // was opened with; fit the first delta to the observed mix rather
    // than waiting for the mix to change.
    trigger = "session start: fitting the live mix";
    last_trigger_ts_ = s.ts_us;
  } else {
    // Secondary trigger: a severe diagnosis (its suggested_options seed
    // the heuristic). Rule-gated so the same standing verdict does not
    // re-fire every interval.
    if (report.diagnoses.empty()) return;
    const monitor::Diagnosis& top = report.diagnoses.front();
    if (top.severity < kDiagnosisSeverityThreshold ||
        top.rule == last_diag_rule_) {
      return;
    }
    char sev[32];
    snprintf(sev, sizeof(sev), "%.2f", top.severity);
    trigger = "diagnosis: " + top.rule + " (severity " + sev +
              "): " + top.cause;
    last_diag_rule_ = top.rule;
    last_trigger_ts_ = s.ts_us;
  }

  kicked_off_ = true;
  json::Object observe;
  observe["trigger"] = trigger;
  observe["rate_ops_per_sec"] = static_cast<int64_t>(SampleRate(s));
  AddStep(s.ts_us, "observe", std::move(observe));

  std::string origin;
  std::map<std::string, std::string> delta =
      ProposeDelta(s, trigger, report.diagnoses, &origin);
  if (delta.empty()) return;

  const std::string sig = DeltaSignature(delta);
  if (rolled_back_.count(sig) > 0) {
    // Proposing a delta that was already rolled back is the oscillation
    // loop the verdict machinery exists to prevent; skip and cool down.
    oscillations_++;
    json::Object skip;
    skip["signature"] = sig;
    AddStep(s.ts_us, "oscillation_skip", std::move(skip));
    cooldown_left_ = kCooldownIntervals;
    return;
  }

  json::Object propose;
  propose["origin"] = origin;
  json::Object changes;
  for (const auto& [k, v] : delta) changes[k] = v;
  propose["changes"] = std::move(changes);
  AddStep(s.ts_us, "propose", std::move(propose));

  // Post-shift baseline: the triggering interval's own rate, so the
  // verdict compares against the new phase's level, not the old one. A
  // rejected delta is recorded on the timeline.
  ApplyDelta(delta, origin, s.ts_us, SampleRate(s));
}

std::map<std::string, std::string> OnlineTuner::ProposeDelta(
    const lsm::IntervalSample& s, const std::string& trigger,
    const std::vector<monitor::Diagnosis>& diagnoses,
    std::string* origin) {
  auto fit = [this](std::map<std::string, std::string> delta) {
    ClampToBudget(&delta);
    DropNoOps(&delta);
    return delta;
  };
  std::map<std::string, std::string> delta;
  if (llm_ != nullptr) delta = fit(LlmDelta(trigger));
  *origin = delta.empty() ? "heuristic" : "llm";
  return delta.empty() ? fit(HeuristicDelta(s, diagnoses)) : delta;
}

std::map<std::string, std::string> OnlineTuner::LlmDelta(
    const std::string& trigger) {
  const lsm::OptionsSchema& schema = lsm::OptionsSchema::Instance();
  const lsm::Options& cur = db_->options();
  LiveDeltaInputs in;
  in.trigger_description = trigger;
  in.memory_budget_bytes = cfg_.memory_budget_bytes;
  in.mutable_options = schema.DescribeMutable(cur);
  in.recent_samples.assign(recent_.begin(), recent_.end());
  if (const auto report = db_->GetHealth()) {
    in.health_evidence = report->ToText();
  }
  in.delta_history = delta_history_;

  // Same vetting pipeline as the offline loop, then restricted to the
  // runtime-mutable subset — anything else SetOptions would reject, so
  // it never reaches the engine.
  std::vector<llm::ChatMessage> chat;
  chat.push_back({"system", PromptGenerator::SystemMessage()});
  Proposal proposal;
  std::map<std::string, std::string> delta;
  if (!Propose(llm_, SafeguardEnforcer(), cur,
               PromptGenerator::GenerateLiveDelta(in), &chat, &proposal)
           .ok()) {
    return delta;
  }
  for (const auto& [name, value] : proposal.report.applied) {
    const lsm::OptionInfo* info = schema.Find(name);
    if (info != nullptr && info->runtime_mutable) delta[name] = value;
  }
  return delta;
}

void OnlineTuner::DropNoOps(
    std::map<std::string, std::string>* delta) const {
  const lsm::OptionsSchema& schema = lsm::OptionsSchema::Instance();
  const lsm::Options& cur = db_->options();
  for (auto it = delta->begin(); it != delta->end();) {
    const lsm::OptionInfo* info = schema.Find(it->first);
    it = info != nullptr && info->get(cur) == it->second ? delta->erase(it)
                                                         : ++it;
  }
}

void OnlineTuner::ClampToBudget(
    std::map<std::string, std::string>* delta) const {
  if (cfg_.memory_budget_bytes == 0 || delta->empty()) return;
  const lsm::OptionsSchema& schema = lsm::OptionsSchema::Instance();
  lsm::Options candidate = db_->options();
  for (const auto& [name, value] : *delta) {
    schema.Apply(&candidate, name, value);
  }
  const uint64_t footprint = candidate.ConfiguredMemoryFootprint();
  if (footprint <= cfg_.memory_budget_bytes) return;
  // Over budget: the delta must take the memory from somewhere, so pull
  // the other byte-size knob into the delta at its current value (a
  // proposal that only grows the cache pays out of the memtables, and
  // vice versa), then shrink both proportionally. Floors can leave the
  // result above budget; the verdict machinery covers that remainder.
  const lsm::Options& cur = db_->options();
  if (delta->count("block_cache_size") == 0) {
    (*delta)["block_cache_size"] = U64(cur.block_cache_size);
  }
  if (delta->count("write_buffer_size") == 0) {
    (*delta)["write_buffer_size"] = U64(cur.write_buffer_size);
  }
  const double ratio = static_cast<double>(cfg_.memory_budget_bytes) /
                       static_cast<double>(footprint);
  for (const char* key : {"write_buffer_size", "block_cache_size"}) {
    auto& value = (*delta)[key];
    const uint64_t v = strtoull(value.c_str(), nullptr, 10);
    value = U64(std::max(
        kMinByteSize, static_cast<uint64_t>(static_cast<double>(v) * ratio)));
  }
}

std::map<std::string, std::string> OnlineTuner::HeuristicDelta(
    const lsm::IntervalSample& s,
    const std::vector<monitor::Diagnosis>& diagnoses) const {
  const lsm::Options& cur = db_->options();
  std::map<std::string, std::string> d;

  // Diagnosis-directed fixes first: the monitor already named the
  // bottleneck and the options to move.
  if (!diagnoses.empty() &&
      diagnoses.front().severity >= kDiagnosisSeverityThreshold) {
    const std::string& rule = diagnoses.front().rule;
    if (rule.find("backlog") != std::string::npos ||
        rule.find("l0") != std::string::npos) {
      d["max_background_jobs"] =
          U64(std::min(cur.max_background_jobs * 2, 8));
      d["level0_slowdown_writes_trigger"] =
          U64(std::min(cur.level0_slowdown_writes_trigger * 3 / 2, 60));
      d["level0_stop_writes_trigger"] =
          U64(std::max(cur.level0_stop_writes_trigger,
                       std::min(cur.level0_slowdown_writes_trigger * 3 / 2,
                                60) + 16));
      return d;
    }
    if (rule.find("memtable") != std::string::npos) {
      d["max_write_buffer_number"] =
          U64(std::min(cur.max_write_buffer_number + 2, 8));
      d["write_buffer_size"] = U64(std::clamp(
          cur.write_buffer_size * 2, kMinByteSize, kMaxWriteBufferSize));
      return d;
    }
    if (rule.find("cache") != std::string::npos) {
      d["block_cache_size"] = U64(std::clamp(
          cur.block_cache_size * 4, kMinByteSize, kMaxBlockCacheSize));
      return d;
    }
  }

  // Mix-directed memory shifting: the configured footprint (cache +
  // memtables) is what the environment debits from the page-cache
  // budget, so moving bytes toward the side the phase exercises — and
  // away from the side it does not — beats any static split. With a
  // budget the split is absolute (reallocate the whole budget); without
  // one, relative steps.
  const double denom = static_cast<double>(s.ops + s.seeks);
  const double write_share = denom > 0 ? s.writes / denom : 0;
  const uint64_t budget = cfg_.memory_budget_bytes;
  if (write_share > 0.5) {
    if (budget > 0) {
      // Half the budget to in-flight memtables; the cache idles.
      d["write_buffer_size"] = U64(std::clamp(
          budget / 8, kMinByteSize, kMaxWriteBufferSize));
      d["max_write_buffer_number"] = "4";
      d["block_cache_size"] = U64(std::max(kMinByteSize, budget / 16));
    } else {
      d["write_buffer_size"] = U64(std::clamp(
          cur.write_buffer_size * 4, kMinByteSize, kMaxWriteBufferSize));
      d["max_write_buffer_number"] =
          U64(std::max(cur.max_write_buffer_number, 4));
      d["block_cache_size"] = U64(std::clamp(
          cur.block_cache_size / 4, kMinByteSize, kMaxBlockCacheSize));
    }
    d["max_background_jobs"] = U64(std::max(cur.max_background_jobs, 4));
  } else {
    // Read or scan phase: the memtable budget is dead weight — hand it
    // to the block cache.
    if (budget > 0) {
      d["block_cache_size"] = U64(std::clamp(
          budget * 3 / 4, kMinByteSize, kMaxBlockCacheSize));
      d["write_buffer_size"] = U64(std::max(kMinByteSize, budget / 32));
      d["max_write_buffer_number"] = "2";
    } else {
      d["block_cache_size"] = U64(std::clamp(
          cur.block_cache_size * 4, kMinByteSize, kMaxBlockCacheSize));
      d["write_buffer_size"] = U64(std::clamp(
          cur.write_buffer_size / 4, kMinByteSize, kMaxWriteBufferSize));
      d["max_write_buffer_number"] = "2";
    }
  }

  // Drop no-ops so a repeated phase does not record empty applies.
  DropNoOps(&d);
  return d;
}

Status OnlineTuner::ApplyDelta(
    const std::map<std::string, std::string>& delta,
    const std::string& origin, uint64_t ts_us, double baseline) {
  const lsm::OptionsSchema& schema = lsm::OptionsSchema::Instance();
  const lsm::Options& cur = db_->options();

  json::Object apply;
  apply["origin"] = origin;
  // Crash-certification gate: a delta that loses acknowledged writes
  // under crash/reopen cycles never reaches the live DB.
  if (cfg_.certify_ops > 0) {
    lsm::Options candidate = cur;
    for (const auto& [name, value] : delta) {
      schema.Apply(&candidate, name, value);
    }
    const stress::StressReport sr = Certify(candidate, cfg_.certify_ops);
    if (!sr.ok) {
      json::Object fail;
      fail["origin"] = origin;
      fail["result"] = "certify_failed";
      fail["divergence"] = sr.first_divergence;
      AddStep(ts_us, "verdict", std::move(fail));
      cooldown_left_ = kCooldownIntervals;
      return Status::Aborted("crash certification failed",
                             sr.first_divergence);
    }
    apply["certified_ops"] = static_cast<int64_t>(sr.ops_executed);
  }

  // Snapshot the revert values before the engine mutates them.
  std::map<std::string, std::string> revert;
  for (const auto& [name, value] : delta) {
    const lsm::OptionInfo* info = schema.Find(name);
    if (info != nullptr) revert[name] = info->get(cur);
  }

  Status s = db_->SetOptions(delta);
  json::Object changes;
  for (const auto& [k, v] : delta) changes[k] = v;
  apply["changes"] = std::move(changes);
  if (!s.ok()) {
    apply["error"] = s.ToString();
    AddStep(ts_us, "apply", std::move(apply));
    cooldown_left_ = kCooldownIntervals;
    return s;
  }
  apply["baseline_ops_per_sec"] = static_cast<int64_t>(baseline);
  AddStep(ts_us, "apply", std::move(apply));

  std::string history_line = "applied {";
  bool first = true;
  for (const auto& [k, v] : delta) {
    if (!first) history_line += ", ";
    history_line += k + " = " + v;
    first = false;
  }
  history_line += "} at t=" + U64(ts_us) + "us (" + origin + ")";
  delta_history_.push_back(history_line);

  applied_deltas_++;
  verifying_ = true;
  baseline_rate_ = baseline;
  verify_seen_ = 0;
  strikes_ = 0;
  active_delta_ = delta;
  revert_delta_ = std::move(revert);
  active_origin_ = origin;
  return Status::OK();
}

void OnlineTuner::VerifySample(const lsm::IntervalSample& s) {
  // A confirmed phase shift mid-verification supersedes the verdict:
  // the baseline belongs to the old phase, so neither "kept" nor
  // "rolled back" would mean anything — re-trigger on the new phase.
  if (const auto report = db_->GetHealth()) {
    for (const auto& e : report->anomalies) {
      if (e.phase_shift && e.ts_us > last_trigger_ts_) {
        json::Object verdict;
        verdict["origin"] = active_origin_;
        verdict["result"] = "superseded_by_phase_shift";
        AddStep(s.ts_us, "verdict", std::move(verdict));
        verifying_ = false;
        CheckTrigger(s);
        return;
      }
    }
  }
  verify_seen_++;
  const double rate = SampleRate(s);
  if (baseline_rate_ > 0 &&
      rate < kRollbackDropFraction * baseline_rate_ &&
      !PhaseShiftNear(s.ts_us)) {
    // Collapse with nothing else to blame: the delta is the suspect.
    strikes_++;
  }
  if (strikes_ >= kStrikesToRollback) {
    Rollback(s);
    return;
  }
  if (verify_seen_ >= kVerifyWindow) {
    json::Object verdict;
    verdict["origin"] = active_origin_;
    verdict["result"] = "kept";
    verdict["baseline_ops_per_sec"] =
        static_cast<int64_t>(baseline_rate_);
    verdict["final_ops_per_sec"] = static_cast<int64_t>(rate);
    AddStep(s.ts_us, "verdict", std::move(verdict));
    verifying_ = false;
    cooldown_left_ = kCooldownIntervals;
  }
}

void OnlineTuner::Rollback(const lsm::IntervalSample& s) {
  const std::string sig = DeltaSignature(active_delta_);
  Status rs = db_->SetOptions(revert_delta_);
  json::Object rb;
  rb["origin"] = active_origin_;
  rb["signature"] = sig;
  rb["baseline_ops_per_sec"] = static_cast<int64_t>(baseline_rate_);
  rb["collapsed_ops_per_sec"] = static_cast<int64_t>(SampleRate(s));
  if (!rs.ok()) rb["revert_error"] = rs.ToString();
  AddStep(s.ts_us, "rollback", std::move(rb));
  if (!delta_history_.empty()) {
    delta_history_.back() += " -> rolled back";
  }
  rolled_back_.insert(sig);
  rollbacks_++;
  verifying_ = false;
  cooldown_left_ = kCooldownIntervals;
}

Status OnlineTuner::InjectDelta(
    const std::map<std::string, std::string>& delta,
    const std::string& origin) {
  if (delta.empty()) {
    return Status::InvalidArgument("InjectDelta", "empty delta");
  }
  // Baseline from the recent window so the verdict machinery has a
  // reference even though no anomaly triggered this apply.
  double baseline = 0;
  int n = 0;
  for (auto it = recent_.rbegin(); it != recent_.rend() && n < 4; ++it) {
    baseline += SampleRate(*it);
    n++;
  }
  if (n > 0) baseline /= n;
  return ApplyDelta(delta, origin, last_sample_ts_, baseline);
}

json::Object OnlineTuner::TimelineJson() const {
  json::Object doc;
  doc["applied"] = static_cast<int64_t>(applied_deltas_);
  doc["rollbacks"] = static_cast<int64_t>(rollbacks_);
  doc["oscillations"] = static_cast<int64_t>(oscillations_);
  json::Array steps;
  for (const auto& step : timeline_) {
    json::Object o;
    o["ts_us"] = static_cast<int64_t>(step.ts_us);
    o["kind"] = step.kind;
    o["detail"] = step.detail;
    steps.push_back(std::move(o));
  }
  doc["steps"] = std::move(steps);
  return doc;
}

}  // namespace elmo::tune
