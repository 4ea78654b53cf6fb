#include "lsm/stats_sampler.h"

#include <algorithm>

#include "util/json.h"

namespace elmo::lsm {

namespace {

// Round to one decimal so the JSON stays compact and deterministic
// across libm implementations.
double Round1(double v) {
  const double shifted = v * 10.0 + (v >= 0 ? 0.5 : -0.5);
  return static_cast<double>(static_cast<int64_t>(shifted)) / 10.0;
}

}  // namespace

json::Object SampleToJsonObject(const IntervalSample& s) {
  json::Object o;
  o["ts_us"] = static_cast<int64_t>(s.ts_us);
  o["interval_us"] = static_cast<int64_t>(s.interval_us);
  o["ops"] = static_cast<int64_t>(s.ops);
  o["writes"] = static_cast<int64_t>(s.writes);
  o["gets"] = static_cast<int64_t>(s.gets);
  o["seeks"] = static_cast<int64_t>(s.seeks);
  o["ops_per_sec"] = Round1(s.ops_per_sec);
  o["p50_write_us"] = Round1(s.p50_write_us);
  o["p99_write_us"] = Round1(s.p99_write_us);
  o["p99_get_us"] = Round1(s.p99_get_us);
  o["stall_micros"] = static_cast<int64_t>(s.stall_micros);
  o["stall_fraction"] = Round1(s.stall_fraction * 1000.0) / 1000.0;
  o["flushes"] = static_cast<int64_t>(s.flushes);
  o["compactions"] = static_cast<int64_t>(s.compactions);
  o["compaction_bytes_written"] =
      static_cast<int64_t>(s.compaction_bytes_written);
  o["block_cache_hits"] = static_cast<int64_t>(s.block_cache_hits);
  o["block_cache_misses"] = static_cast<int64_t>(s.block_cache_misses);
  o["block_cache_usage"] = static_cast<int64_t>(s.block_cache_usage);
  o["bg_errors"] = static_cast<int64_t>(s.bg_errors);
  o["auto_resume_successes"] =
      static_cast<int64_t>(s.auto_resume_successes);
  o["auto_resume_failures"] = static_cast<int64_t>(s.auto_resume_failures);
  o["bg_error_severity"] = s.bg_error_severity;
  o["memtable_bytes"] = static_cast<int64_t>(s.memtable_bytes);
  o["imm_count"] = s.imm_count;
  o["pending_compaction_bytes"] =
      static_cast<int64_t>(s.pending_compaction_bytes);
  o["l0_files"] = s.l0_files;
  o["span_stall_us"] = static_cast<int64_t>(s.span_stall_us);
  o["span_wal_sync_us"] = static_cast<int64_t>(s.span_wal_sync_us);
  o["span_sst_probe_us"] = static_cast<int64_t>(s.span_sst_probe_us);
  o["span_memtable_us"] = static_cast<int64_t>(s.span_memtable_us);
  json::Array levels;
  for (int l = 0; l < s.num_levels && l < DbStats::kMaxLevels; l++) {
    levels.emplace_back(s.level_files[l]);
  }
  o["level_files"] = std::move(levels);
  return o;
}

namespace {

uint64_t GetU64(const json::Value& obj, const char* key) {
  const json::Value* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? static_cast<uint64_t>(v->as_int())
                                          : 0;
}

double GetDouble(const json::Value& obj, const char* key) {
  const json::Value* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : 0.0;
}

}  // namespace

IntervalSample SampleFromJsonValue(const json::Value& obj) {
  IntervalSample s;
  s.ts_us = GetU64(obj, "ts_us");
  s.interval_us = GetU64(obj, "interval_us");
  s.ops = GetU64(obj, "ops");
  s.writes = GetU64(obj, "writes");
  s.gets = GetU64(obj, "gets");
  s.seeks = GetU64(obj, "seeks");
  s.ops_per_sec = GetDouble(obj, "ops_per_sec");
  s.p50_write_us = GetDouble(obj, "p50_write_us");
  s.p99_write_us = GetDouble(obj, "p99_write_us");
  s.p99_get_us = GetDouble(obj, "p99_get_us");
  s.stall_micros = GetU64(obj, "stall_micros");
  s.stall_fraction = GetDouble(obj, "stall_fraction");
  s.flushes = GetU64(obj, "flushes");
  s.compactions = GetU64(obj, "compactions");
  s.compaction_bytes_written = GetU64(obj, "compaction_bytes_written");
  s.block_cache_hits = GetU64(obj, "block_cache_hits");
  s.block_cache_misses = GetU64(obj, "block_cache_misses");
  s.block_cache_usage = GetU64(obj, "block_cache_usage");
  s.bg_errors = GetU64(obj, "bg_errors");
  s.auto_resume_successes = GetU64(obj, "auto_resume_successes");
  s.auto_resume_failures = GetU64(obj, "auto_resume_failures");
  s.bg_error_severity = static_cast<int>(GetU64(obj, "bg_error_severity"));
  s.memtable_bytes = GetU64(obj, "memtable_bytes");
  s.imm_count = static_cast<int>(GetU64(obj, "imm_count"));
  s.pending_compaction_bytes = GetU64(obj, "pending_compaction_bytes");
  s.l0_files = static_cast<int>(GetU64(obj, "l0_files"));
  s.span_stall_us = GetU64(obj, "span_stall_us");
  s.span_wal_sync_us = GetU64(obj, "span_wal_sync_us");
  s.span_sst_probe_us = GetU64(obj, "span_sst_probe_us");
  s.span_memtable_us = GetU64(obj, "span_memtable_us");
  const json::Value* levels = obj.Find("level_files");
  if (levels != nullptr && levels->is_array()) {
    const json::Array& a = levels->as_array();
    s.num_levels = static_cast<int>(
        std::min<size_t>(a.size(), DbStats::kMaxLevels));
    for (int l = 0; l < s.num_levels; l++) {
      s.level_files[l] = a[l].is_number() ? static_cast<int>(a[l].as_int()) : 0;
    }
  }
  return s;
}

std::string TimeSeriesToJson(const TimeSeries& series) {
  json::Object doc;
  doc["interval_us"] = static_cast<int64_t>(series.interval_us);
  doc["dropped"] = static_cast<int64_t>(series.dropped);
  json::Array arr;
  arr.reserve(series.samples.size());
  for (const IntervalSample& s : series.samples) {
    arr.emplace_back(SampleToJsonObject(s));
  }
  doc["samples"] = std::move(arr);
  return json::Value(std::move(doc)).Dump();
}

Status TimeSeriesFromJson(const std::string& text,
                          std::vector<IntervalSample>* samples,
                          uint64_t* interval_us, uint64_t* dropped) {
  json::Value doc;
  Status s = json::Parse(text, &doc);
  if (!s.ok()) return s;
  if (!doc.is_object()) {
    return Status::Corruption("timeseries: not a JSON object");
  }
  if (interval_us != nullptr) *interval_us = GetU64(doc, "interval_us");
  if (dropped != nullptr) *dropped = GetU64(doc, "dropped");
  samples->clear();
  const json::Value* arr = doc.Find("samples");
  if (arr == nullptr) return Status::OK();
  if (!arr->is_array()) {
    return Status::Corruption("timeseries: samples is not an array");
  }
  samples->reserve(arr->as_array().size());
  for (const json::Value& v : arr->as_array()) {
    if (!v.is_object()) {
      return Status::Corruption("timeseries: sample is not an object");
    }
    samples->push_back(SampleFromJsonValue(v));
  }
  return Status::OK();
}

StatsSampler::StatsSampler(const DbStats* stats, uint64_t interval_us,
                           size_t capacity, uint64_t start_ts_us)
    : stats_(stats),
      interval_us_(interval_us == 0 ? 1 : interval_us),
      capacity_(capacity == 0 ? 1 : capacity),
      next_due_(start_ts_us + (interval_us == 0 ? 1 : interval_us)),
      prev_(stats->GetSnapshot()),
      prev_ts_us_(start_ts_us) {}

void StatsSampler::SetInterval(uint64_t interval_us, uint64_t now_us) {
  std::lock_guard<std::mutex> l(mu_);
  if (interval_us == 0) interval_us = 1;
  interval_us_.store(interval_us, std::memory_order_relaxed);
  const uint64_t due = prev_ts_us_ + interval_us;
  next_due_.store(due > now_us ? due : now_us,
                  std::memory_order_relaxed);
}

bool StatsSampler::Tick(uint64_t now_us, const EngineGauges& gauges) {
  if (!Due(now_us)) return false;
  std::lock_guard<std::mutex> l(mu_);
  // Re-check under the lock: a racing tick may have consumed this slot,
  // and timestamps must stay strictly monotone.
  if (now_us < next_due_.load(std::memory_order_relaxed) ||
      now_us <= prev_ts_us_) {
    return false;
  }

  StatsSnapshot cur = stats_->GetSnapshot();
  StatsSnapshot delta = cur.Delta(prev_);
  const uint64_t interval = now_us - prev_ts_us_;

  // A tick that lands a whole extra interval after it was due means the
  // sampling cadence slipped (busy sampler thread, or sparse piggyback
  // call sites under SimEnv). Surfaced via LateTicks().
  const uint64_t interval_cfg =
      interval_us_.load(std::memory_order_relaxed);
  if (interval >= 2 * interval_cfg) late_ticks_++;

  IntervalSample s;
  s.ts_us = now_us;
  s.interval_us = interval;
  s.writes = delta.Get(Ticker::kWriteCount) + delta.Get(Ticker::kDeleteCount);
  s.gets = delta.Get(Ticker::kGetHit) + delta.Get(Ticker::kGetMiss);
  s.seeks = delta.Get(Ticker::kSeekCount);
  s.ops = s.writes + s.gets;
  s.ops_per_sec = static_cast<double>(s.ops) * 1e6 / interval;
  const Histogram& wh = delta.GetHistogram(HistogramType::kWriteMicros);
  s.p50_write_us = wh.Median();
  s.p99_write_us = wh.Percentile(99.0);
  s.p99_get_us = delta.GetHistogram(HistogramType::kGetMicros).Percentile(99.0);
  s.stall_micros = delta.Get(Ticker::kWriteStallMicros);
  s.stall_fraction =
      std::min(1.0, static_cast<double>(s.stall_micros) / interval);
  s.flushes = delta.Get(Ticker::kFlushCount);
  s.compactions = delta.Get(Ticker::kCompactionCount);
  s.compaction_bytes_written = delta.Get(Ticker::kCompactionBytesWritten);
  s.block_cache_hits = delta.Get(Ticker::kBlockCacheHit);
  s.block_cache_misses = delta.Get(Ticker::kBlockCacheMiss);
  s.bg_errors = delta.Get(Ticker::kBackgroundErrorsSoft) +
                delta.Get(Ticker::kBackgroundErrorsHard) +
                delta.Get(Ticker::kBackgroundErrorsFatal);
  s.auto_resume_successes = delta.Get(Ticker::kAutoResumeSuccess);
  s.auto_resume_failures = delta.Get(Ticker::kAutoResumeFailure);

  s.memtable_bytes = gauges.memtable_bytes;
  s.block_cache_usage = gauges.block_cache_usage;
  s.imm_count = gauges.imm_count;
  s.pending_compaction_bytes = gauges.pending_compaction_bytes;
  s.num_levels = std::min(gauges.num_levels, DbStats::kMaxLevels);
  for (int l = 0; l < s.num_levels; l++) {
    s.level_files[l] = gauges.level_files[l];
  }
  s.l0_files = s.num_levels > 0 ? s.level_files[0] : 0;
  s.bg_error_severity = gauges.bg_error_severity;

  auto span_delta = [](uint64_t cur_v, uint64_t& prev_v) {
    const uint64_t d = cur_v >= prev_v ? cur_v - prev_v : 0;
    prev_v = cur_v;
    return d;
  };
  s.span_stall_us = span_delta(gauges.span_stall_us, prev_span_stall_us_);
  s.span_wal_sync_us =
      span_delta(gauges.span_wal_sync_us, prev_span_wal_sync_us_);
  s.span_sst_probe_us =
      span_delta(gauges.span_sst_probe_us, prev_span_sst_probe_us_);
  s.span_memtable_us =
      span_delta(gauges.span_memtable_us, prev_span_memtable_us_);

  ring_.push_back(s);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    dropped_++;
  }
  prev_ = std::move(cur);
  prev_ts_us_ = now_us;
  next_due_.store(now_us + interval_cfg, std::memory_order_relaxed);
  return true;
}

IntervalSample StatsSampler::Latest() const {
  std::lock_guard<std::mutex> l(mu_);
  return ring_.empty() ? IntervalSample() : ring_.back();
}

size_t StatsSampler::NumSamples() const {
  std::lock_guard<std::mutex> l(mu_);
  return ring_.size();
}

uint64_t StatsSampler::DroppedSamples() const {
  std::lock_guard<std::mutex> l(mu_);
  return dropped_;
}

uint64_t StatsSampler::LateTicks() const {
  std::lock_guard<std::mutex> l(mu_);
  return late_ticks_;
}

TimeSeries StatsSampler::Series() const {
  std::lock_guard<std::mutex> l(mu_);
  return TimeSeries{interval_us_.load(std::memory_order_relaxed), dropped_,
                    std::vector<IntervalSample>(ring_.begin(), ring_.end())};
}

}  // namespace elmo::lsm
