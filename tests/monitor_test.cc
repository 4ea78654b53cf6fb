// The monitor subsystem end to end: changepoint detector semantics,
// diagnosis rule ranking, Prometheus exposition format, and the SimEnv
// golden workloads the issue pins down — a load->read->scan run flags
// exactly two phase shifts, a stable run flags none, a planted L0
// backlog diagnoses as such, and same-seed runs are byte-identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_kit/bench_runner.h"
#include "bench_kit/report.h"
#include "env/sim_env.h"
#include "lsm/db.h"
#include "monitor/detector.h"
#include "monitor/diagnosis.h"
#include "monitor/health_monitor.h"
#include "monitor/offline.h"
#include "monitor/prometheus.h"
#include "util/json.h"

namespace elmo::monitor {
namespace {

using bench::BenchRunner;
using bench::WorkloadSpec;
using elmo::DeviceModel;
using elmo::HardwareProfile;
using elmo::SimEnv;
using lsm::DB;
using lsm::IntervalSample;
using lsm::Options;
using lsm::ReadOptions;

// ---- detector unit tests (hand-built sample streams) ----

IntervalSample MakeSample(uint64_t ts_us, uint64_t writes, uint64_t gets,
                          uint64_t seeks = 0) {
  IntervalSample s;
  s.ts_us = ts_us;
  s.interval_us = 1'000'000;
  s.writes = writes;
  s.gets = gets;
  s.ops = writes + gets;
  s.seeks = seeks;
  s.ops_per_sec = static_cast<double>(s.ops + seeks);
  return s;
}

TEST(Detector, StableSeriesProducesNoEvents) {
  std::vector<IntervalSample> samples;
  for (int i = 0; i < 30; i++) {
    samples.push_back(MakeSample((i + 1) * 1'000'000ull, 50000, 0));
  }
  EXPECT_TRUE(DetectSeries(samples).empty());
}

TEST(Detector, ConfirmedStepFiresOnceWithCooldown) {
  std::vector<IntervalSample> samples;
  uint64_t ts = 0;
  for (int i = 0; i < 8; i++) {
    samples.push_back(MakeSample(ts += 1'000'000, 100000, 0));
  }
  for (int i = 0; i < 8; i++) {
    samples.push_back(MakeSample(ts += 1'000'000, 20000, 0));
  }
  const auto events = DetectSeries(samples);
  int ops_events = 0;
  for (const auto& e : events) {
    if (e.metric == Metric::kOpsPerSec) {
      ops_events++;
      EXPECT_EQ(e.kind, AnomalyKind::kLevelShift);
      EXPECT_EQ(e.direction, -1);
      EXPECT_FALSE(e.phase_shift);
      EXPECT_GT(e.before, e.after);
    }
  }
  // One confirmed collapse; the cooldown + reseeded window keep the new
  // regime from re-firing every tick.
  EXPECT_EQ(ops_events, 1);
}

TEST(Detector, SingleTickSpikeIsNotConfirmed) {
  std::vector<IntervalSample> samples;
  uint64_t ts = 0;
  for (int i = 0; i < 6; i++) {
    samples.push_back(MakeSample(ts += 1'000'000, 100000, 0));
  }
  samples.push_back(MakeSample(ts += 1'000'000, 10000, 0));  // one blip
  for (int i = 0; i < 6; i++) {
    samples.push_back(MakeSample(ts += 1'000'000, 100000, 0));
  }
  for (const auto& e : DetectSeries(samples)) {
    EXPECT_NE(e.metric, Metric::kOpsPerSec) << e.ToString();
  }
}

TEST(Detector, MonotoneDebtGrowthFiresTrend) {
  std::vector<IntervalSample> samples;
  uint64_t ts = 0;
  for (int i = 0; i < 12; i++) {
    IntervalSample s = MakeSample(ts += 1'000'000, 50000, 0);
    s.pending_compaction_bytes = (4ull << 20) + i * (4ull << 20);
    samples.push_back(s);
  }
  bool trend = false;
  for (const auto& e : DetectSeries(samples)) {
    if (e.metric == Metric::kCompactionDebt &&
        e.kind == AnomalyKind::kTrend) {
      trend = true;
      EXPECT_EQ(e.direction, 1);
    }
  }
  EXPECT_TRUE(trend);
}

TEST(Detector, EventJsonRoundTrip) {
  AnomalyEvent e;
  e.ts_us = 123456;
  e.metric = Metric::kScanShare;
  e.kind = AnomalyKind::kLevelShift;
  e.direction = 1;
  e.phase_shift = true;
  e.before = 0.1;
  e.after = 0.9;
  e.zscore = 5.5;
  const AnomalyEvent back = AnomalyEventFromJson(json::Value(e.ToJson()));
  EXPECT_EQ(back.ts_us, e.ts_us);
  EXPECT_EQ(back.metric, e.metric);
  EXPECT_EQ(back.kind, e.kind);
  EXPECT_EQ(back.direction, e.direction);
  EXPECT_EQ(back.phase_shift, e.phase_shift);
  EXPECT_DOUBLE_EQ(back.before, e.before);
  EXPECT_DOUBLE_EQ(back.after, e.after);
}

// ---- diagnosis rules ----

TEST(Diagnosis, L0BacklogOutranksEverythingAtStopTrigger) {
  EngineInfo info;  // defaults: slowdown 20, stop 36
  IntervalSample s = MakeSample(1'000'000, 1000, 0);
  s.stall_micros = 400'000;
  s.stall_fraction = 0.4;
  s.l0_files = 36;
  s.num_levels = 2;
  s.level_files[0] = 36;
  const auto diagnoses = Diagnose({s}, {}, info);
  ASSERT_FALSE(diagnoses.empty());
  EXPECT_EQ(diagnoses.front().rule, "l0_compaction_backlog");
  EXPECT_GE(diagnoses.front().severity, 0.99);
  bool suggests_jobs = false;
  for (const auto& opt : diagnoses.front().suggested_options) {
    if (opt == "max_background_jobs") suggests_jobs = true;
  }
  EXPECT_TRUE(suggests_jobs);
}

TEST(Diagnosis, PhaseShiftAnomalyYieldsWorkloadRule) {
  EngineInfo info;
  IntervalSample s = MakeSample(1'000'000, 0, 50000);
  AnomalyEvent e;
  e.ts_us = 1'000'000;
  e.metric = Metric::kWriteShare;
  e.phase_shift = true;
  e.direction = -1;
  const auto diagnoses = Diagnose({s}, {e}, info);
  bool found = false;
  for (const auto& d : diagnoses) {
    if (d.rule == "workload_phase_shift") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Diagnosis, JsonRoundTrip) {
  Diagnosis d;
  d.rule = "cache_thrash";
  d.severity = 0.66;
  d.symptom = "cache hit ratio collapsed";
  d.cause = "working set larger than block cache";
  d.evidence = {"hit ratio 0.31", "usage 100% of capacity"};
  d.suggested_options = {"block_cache_size"};
  const Diagnosis back = DiagnosisFromJson(json::Value(d.ToJson()));
  EXPECT_EQ(back.rule, d.rule);
  EXPECT_DOUBLE_EQ(back.severity, d.severity);
  EXPECT_EQ(back.evidence, d.evidence);
  EXPECT_EQ(back.suggested_options, d.suggested_options);
}

// ---- prometheus exposition ----

TEST(Prometheus, ExpositionFormatAndDeterminism) {
  PrometheusInputs in;
  in.stats.tickers[static_cast<int>(lsm::Ticker::kWriteCount)] = 42;
  in.num_levels = 2;
  in.level_files[0] = 3;
  in.level_files[1] = 1;
  in.memtable_bytes = 4096;
  in.block_cache_capacity = 1 << 20;
  in.health_status = 1;
  in.health_top_rule = "l0_compaction_backlog";
  in.health_top_severity = 0.8;
  in.ts_us = 5'000'000;
  const std::string text = RenderPrometheus(in);
  EXPECT_NE(text.find("# TYPE elmo_writes_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("elmo_writes_total 42"), std::string::npos);
  EXPECT_NE(text.find("elmo_level_files{level=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE elmo_health_status gauge"),
            std::string::npos);
  EXPECT_NE(text.find("elmo_health_status 1"), std::string::npos);
  EXPECT_NE(text.find(
                "elmo_health_top_severity{rule=\"l0_compaction_backlog\"}"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text, RenderPrometheus(in));  // deterministic
}

// ---- SimEnv golden workloads ----

std::unique_ptr<SimEnv> MakeEnv(uint64_t seed) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd());
  return std::make_unique<SimEnv>(hw, seed);
}

Options BaseOptions(Env* env) {
  Options o;
  o.env = env;
  o.create_if_missing = true;
  o.write_buffer_size = 1 << 20;
  // Smaller than the working set: reads and scans keep paying simulated
  // device IO, so the virtual clock advances through every phase.
  o.block_cache_size = 64 << 10;
  o.stats_sample_interval_ms = 10;
  return o;
}

struct ThreePhaseRun {
  std::string health_json;
  std::string prometheus;
  std::string timeseries_json;
  uint64_t fill_end_us = 0;  // engine clock at each phase boundary
  uint64_t read_end_us = 0;
  uint64_t interval_us = 10'000;
};

// Load -> read-heavy -> scan against a SimEnv DB; the sampler ticks on
// the virtual clock, so the phase boundaries land on exact sample
// timestamps run after run.
ThreePhaseRun RunThreePhase(SimEnv* env) {
  ThreePhaseRun out;
  Options o = BaseOptions(env);
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(o, "/db", &db).ok());
  const std::string value(512, 'v');
  char key[32];
  for (int i = 0; i < 40000; i++) {
    snprintf(key, sizeof(key), "%012d", i % 5000);
    EXPECT_TRUE(db->Put({}, key, value).ok());
  }
  out.fill_end_us = env->NowMicros();
  std::string read_value;
  for (int i = 0; i < 30000; i++) {
    snprintf(key, sizeof(key), "%012d", i % 5000);
    db->Get(ReadOptions(), key, &read_value);
  }
  out.read_end_us = env->NowMicros();
  for (int i = 0; i < 10000; i++) {
    snprintf(key, sizeof(key), "%012d", i % 5000);
    auto iter = db->NewIterator(ReadOptions());
    iter->Seek(key);
    for (int n = 0; n < 10 && iter->Valid(); n++) iter->Next();
  }
  EXPECT_TRUE(db->GetProperty("elmo.health", &out.health_json));
  EXPECT_TRUE(db->GetProperty("elmo.prometheus", &out.prometheus));
  EXPECT_TRUE(db->GetProperty("elmo.timeseries", &out.timeseries_json));
  db.reset();
  return out;
}

TEST(MonitorGolden, ThreePhaseWorkloadFlagsExactlyTwoTransitions) {
  auto env = MakeEnv(/*seed=*/7);
  const ThreePhaseRun run = RunThreePhase(env.get());

  HealthReport report;
  ASSERT_TRUE(HealthReport::FromJson(run.health_json, &report).ok())
      << run.health_json;

  std::vector<AnomalyEvent> shifts;
  for (const auto& e : report.anomalies) {
    if (e.phase_shift) shifts.push_back(e);
  }
  ASSERT_EQ(shifts.size(), 2u)
      << "fill_end=" << run.fill_end_us << " read_end=" << run.read_end_us
      << "\n" << run.health_json;

  // Transition 1 (fill -> read): the write share falls off a cliff,
  // confirmed within 3 sampler intervals of the boundary.
  EXPECT_EQ(shifts[0].metric, Metric::kWriteShare);
  EXPECT_EQ(shifts[0].direction, -1);
  EXPECT_GE(shifts[0].ts_us, run.fill_end_us);
  EXPECT_LE(shifts[0].ts_us, run.fill_end_us + 3 * run.interval_us);

  // Transition 2 (read -> scan): the scan share takes over.
  EXPECT_EQ(shifts[1].metric, Metric::kScanShare);
  EXPECT_EQ(shifts[1].direction, 1);
  EXPECT_GE(shifts[1].ts_us, run.read_end_us);
  EXPECT_LE(shifts[1].ts_us, run.read_end_us + 3 * run.interval_us);
}

TEST(MonitorGolden, StableWorkloadFlagsNoPhaseShift) {
  auto env = MakeEnv(11);
  Options o = BaseOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  const std::string value(512, 'v');
  char key[32];
  for (int i = 0; i < 60000; i++) {
    snprintf(key, sizeof(key), "%012d", i % 5000);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  std::string health;
  ASSERT_TRUE(db->GetProperty("elmo.health", &health));
  HealthReport report;
  ASSERT_TRUE(HealthReport::FromJson(health, &report).ok()) << health;
  EXPECT_GE(report.intervals_observed, 6u);
  for (const auto& e : report.anomalies) {
    EXPECT_FALSE(e.phase_shift) << e.ToString();
  }
  db.reset();
}

TEST(MonitorGolden, SameSeedRunsAreByteIdentical) {
  auto env_a = MakeEnv(42);
  auto env_b = MakeEnv(42);
  const ThreePhaseRun a = RunThreePhase(env_a.get());
  const ThreePhaseRun b = RunThreePhase(env_b.get());
  EXPECT_EQ(a.health_json, b.health_json);
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
}

TEST(MonitorGolden, PlantedL0BacklogIsTopDiagnosis) {
  // An HDD pays milliseconds per compaction IO, so a single compaction
  // lane cannot keep up with memtable-rotation ingest: L0 piles past
  // its pulled-down slowdown trigger and writes stall behind it.
  // Plenty of cores + dedicated flush lanes keep flushes ahead of the
  // paced writer, so the backlog accumulates where compaction lags: L0.
  // The memtable_stall rule must NOT be the story here.
  auto hw = HardwareProfile::Make(8, 4, DeviceModel::SataHdd());
  auto env = std::make_unique<SimEnv>(hw, /*seed=*/13);
  Options o = BaseOptions(env.get());
  o.write_buffer_size = 64 << 10;
  o.level0_file_num_compaction_trigger = 2;
  o.level0_slowdown_writes_trigger = 4;
  o.max_write_buffer_number = 4;
  o.max_background_flushes = 2;
  o.max_background_compactions = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  const std::string value(512, 'v');
  char key[32];
  for (int i = 0; i < 20000; i++) {
    // Wrapping keys make every memtable span the whole keyspace, so
    // each L0->L1 compaction rewrites essentially all of L1 — the
    // write amplification the single compaction lane drowns under.
    snprintf(key, sizeof(key), "%012d", i % 5000);
    ASSERT_TRUE(db->Put({}, key, value).ok());
    // Pace ingest just above flush capacity (virtual-clock sleep).
    if (i % 4 == 3) env->SleepForMicroseconds(200);
  }
  std::string health;
  ASSERT_TRUE(db->GetProperty("elmo.health", &health));
  HealthReport report;
  ASSERT_TRUE(HealthReport::FromJson(health, &report).ok()) << health;
  ASSERT_FALSE(report.diagnoses.empty()) << health;
  EXPECT_EQ(report.diagnoses.front().rule, "l0_compaction_backlog")
      << health;
  EXPECT_NE(report.status, HealthStatus::kOk);
  db.reset();
}

TEST(MonitorGolden, HealthPropertyDisabledWithoutMonitor) {
  auto env = MakeEnv(5);
  Options o = BaseOptions(env.get());
  o.enable_health_monitor = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  std::string health;
  ASSERT_TRUE(db->GetProperty("elmo.health", &health));
  EXPECT_NE(health.find("disabled"), std::string::npos) << health;
  db.reset();
}

// ---- offline replay ----

TEST(MonitorOffline, LogReplayMatchesLiveVerdict) {
  auto env = MakeEnv(7);
  const ThreePhaseRun run = RunThreePhase(env.get());

  // The DB is gone; its JSONL LOG (full sampler_tick events) remains on
  // the SimEnv filesystem. Replaying it must reconstruct the same two
  // phase transitions the live monitor saw.
  HealthTimeline timeline;
  ASSERT_TRUE(
      RunHealthOffline(env.get(), "/db/LOG", MonitorConfig{}, &timeline)
          .ok());
  size_t shifts = 0;
  for (const auto& e : timeline.final_report.anomalies) {
    if (e.phase_shift) shifts++;
  }
  EXPECT_EQ(shifts, 2u);
  EXPECT_FALSE(timeline.entries.empty());
  EXPECT_FALSE(timeline.ToText().empty());
  json::Value doc;
  ASSERT_TRUE(json::Parse(timeline.ToJson(), &doc).ok());
  EXPECT_TRUE(doc.Find("ticks") != nullptr);
}

TEST(MonitorOffline, TimeseriesJsonReplayWorks) {
  auto env = MakeEnv(7);
  const ThreePhaseRun run = RunThreePhase(env.get());
  ASSERT_TRUE(env->WriteStringToFile(Slice(run.timeseries_json),
                                     "/ts.json", /*sync=*/false)
                  .ok());
  HealthTimeline timeline;
  ASSERT_TRUE(
      RunHealthOffline(env.get(), "/ts.json", MonitorConfig{}, &timeline)
          .ok());
  size_t shifts = 0;
  for (const auto& e : timeline.final_report.anomalies) {
    if (e.phase_shift) shifts++;
  }
  EXPECT_EQ(shifts, 2u);
}

TEST(MonitorOffline, PrometheusFileRejectedWithHint) {
  auto env = MakeEnv(7);
  const ThreePhaseRun run = RunThreePhase(env.get());
  ASSERT_TRUE(env->WriteStringToFile(Slice(run.prometheus),
                                     "/metrics.prom", /*sync=*/false)
                  .ok());
  HealthTimeline timeline;
  const Status s =
      RunHealthOffline(env.get(), "/metrics.prom", MonitorConfig{},
                       &timeline);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("prometheus"), std::string::npos);
}

// ---- bench + prompt integration ----

TEST(MonitorIntegration, BenchResultCarriesHealthEvidence) {
  BenchRunner runner(HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()));
  const auto r = runner.Run(WorkloadSpec::FillRandom(20000), Options());
  ASSERT_TRUE(r.health.has_value());
  const std::string text = r.health->ToText();
  ASSERT_FALSE(text.empty());
  EXPECT_NE(r.ToReport().find("Health & diagnosis:\n" + text),
            std::string::npos);
  json::Value doc;
  ASSERT_TRUE(json::Parse(r.ToJson(), &doc).ok());
  const json::Value* health = doc.Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_NE(health->Find("status"), nullptr);
}

}  // namespace
}  // namespace elmo::monitor
