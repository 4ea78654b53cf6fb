// StatsSampler and the "elmo.timeseries" property: interval deltas,
// ring bounds, JSON round-trip, and monotone virtual-clock timestamps
// on a SimEnv-backed DB.
#include <gtest/gtest.h>

#include <memory>

#include "env/mem_env.h"
#include "env/sim_env.h"
#include "lsm/db.h"
#include "lsm/stats_sampler.h"
#include "util/json.h"

namespace elmo::lsm {
namespace {

TEST(StatsSamplerTest, TicksProduceIntervalDeltas) {
  DbStats stats;
  StatsSampler sampler(&stats, /*interval_us=*/1000, /*capacity=*/64,
                       /*start_ts_us=*/0);
  EXPECT_FALSE(sampler.Due(999));
  EXPECT_TRUE(sampler.Due(1000));

  stats.Add(Ticker::kWriteCount, 100);
  stats.Measure(HistogramType::kWriteMicros, 50);
  EngineGauges g;
  g.num_levels = 3;
  g.level_files[0] = 2;
  ASSERT_TRUE(sampler.Tick(1000, g));

  stats.Add(Ticker::kWriteCount, 40);
  stats.Add(Ticker::kGetHit, 10);
  ASSERT_TRUE(sampler.Tick(2000, g));

  auto samples = sampler.Series().samples;
  ASSERT_EQ(samples.size(), 2u);
  // First interval: 100 writes over 1000us.
  EXPECT_EQ(samples[0].writes, 100u);
  EXPECT_DOUBLE_EQ(samples[0].ops_per_sec, 100 * 1e6 / 1000);
  // Second interval sees only the delta, not the cumulative counts.
  EXPECT_EQ(samples[1].writes, 40u);
  EXPECT_EQ(samples[1].gets, 10u);
  EXPECT_EQ(samples[1].ops, 50u);
  EXPECT_EQ(samples[1].l0_files, 2);
}

TEST(StatsSamplerTest, NotDueAndNonMonotoneTicksRejected) {
  DbStats stats;
  StatsSampler sampler(&stats, 1000, 64, 0);
  EngineGauges g;
  EXPECT_FALSE(sampler.Tick(500, g));  // not due yet
  ASSERT_TRUE(sampler.Tick(1500, g));
  EXPECT_FALSE(sampler.Tick(1500, g));  // same timestamp: rejected
  EXPECT_FALSE(sampler.Tick(1400, g));  // going backwards: rejected
  EXPECT_EQ(sampler.NumSamples(), 1u);
}

TEST(StatsSamplerTest, RingDropsOldestAndCounts) {
  DbStats stats;
  StatsSampler sampler(&stats, 10, /*capacity=*/4, 0);
  EngineGauges g;
  for (uint64_t t = 10; t <= 100; t += 10) {
    ASSERT_TRUE(sampler.Tick(t, g));
  }
  EXPECT_EQ(sampler.NumSamples(), 4u);
  EXPECT_EQ(sampler.DroppedSamples(), 6u);
  auto samples = sampler.Series().samples;
  EXPECT_EQ(samples.front().ts_us, 70u);  // oldest retained
  EXPECT_EQ(samples.back().ts_us, 100u);
}

TEST(StatsSamplerTest, JsonRoundTrip) {
  DbStats stats;
  StatsSampler sampler(&stats, 1000, 8, 0);
  stats.Add(Ticker::kWriteCount, 7);
  stats.Add(Ticker::kWriteStallMicros, 250);
  EngineGauges g;
  g.memtable_bytes = 12345;
  g.pending_compaction_bytes = 1 << 20;
  g.num_levels = 2;
  g.level_files[0] = 3;
  g.level_files[1] = 5;
  ASSERT_TRUE(sampler.Tick(1000, g));

  const std::string text = TimeSeriesToJson(sampler.Series());
  json::Value doc;
  ASSERT_TRUE(json::Parse(text, &doc).ok()) << text;

  std::vector<IntervalSample> parsed;
  uint64_t interval = 0, dropped = 99;
  ASSERT_TRUE(TimeSeriesFromJson(text, &parsed, &interval, &dropped).ok());
  EXPECT_EQ(interval, 1000u);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].ts_us, 1000u);
  EXPECT_EQ(parsed[0].writes, 7u);
  EXPECT_EQ(parsed[0].stall_micros, 250u);
  EXPECT_EQ(parsed[0].memtable_bytes, 12345u);
  EXPECT_EQ(parsed[0].pending_compaction_bytes, 1u << 20);
  ASSERT_EQ(parsed[0].num_levels, 2);
  EXPECT_EQ(parsed[0].level_files[0], 3);
  EXPECT_EQ(parsed[0].level_files[1], 5);
}

TEST(StatsSamplerTest, SeeksSurviveJsonRoundTrip) {
  DbStats stats;
  StatsSampler sampler(&stats, 1000, 8, 0);
  stats.Add(Ticker::kSeekCount, 13);
  stats.Add(Ticker::kGetHit, 2);
  EngineGauges g;
  ASSERT_TRUE(sampler.Tick(1000, g));
  std::vector<IntervalSample> parsed;
  ASSERT_TRUE(
      TimeSeriesFromJson(TimeSeriesToJson(sampler.Series()), &parsed).ok());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seeks, 13u);
  // Seeks are a separate stream: not folded into ops.
  EXPECT_EQ(parsed[0].ops, 2u);
}

TEST(StatsSamplerTest, LateTicksCounted) {
  DbStats stats;
  StatsSampler sampler(&stats, 1000, 64, 0);
  EngineGauges g;
  ASSERT_TRUE(sampler.Tick(1000, g));  // on time
  ASSERT_TRUE(sampler.Tick(2000, g));  // on time
  EXPECT_EQ(sampler.LateTicks(), 0u);
  ASSERT_TRUE(sampler.Tick(4100, g));  // 2100us gap >= 2 intervals: late
  EXPECT_EQ(sampler.LateTicks(), 1u);
  ASSERT_TRUE(sampler.Tick(5200, g));  // 1100us gap: back on cadence
  EXPECT_EQ(sampler.LateTicks(), 1u);
}

// Shutdown-ordering audit for the real-env sampler thread: open/close
// DBs rapidly with a 1ms cadence so destruction races a due tick. The
// destructor must join the thread before the info LOG closes — any
// ordering bug shows up as a crash/use-after-free under sanitizers.
TEST(StatsSamplerTest, RapidOpenCloseWithSamplerThread) {
  MemEnv env;
  for (int round = 0; round < 8; round++) {
    Options o;
    o.env = &env;
    o.create_if_missing = true;
    o.stats_sample_interval_ms = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(o, "/rapid_db", &db).ok());
    const std::string value(128, 'v');
    for (int i = 0; i < 200; i++) {
      char key[32];
      snprintf(key, sizeof(key), "%08d", i);
      ASSERT_TRUE(db->Put({}, key, value).ok());
    }
    if (round % 2 == 1) {
      // Give the sampler thread a real chance to tick before teardown.
      env.SleepForMicroseconds(3000);
    }
    db.reset();  // joins the sampler thread, then closes the LOG
  }
}

TEST(StatsSamplerTest, SimEnvDbRecordsMonotoneVirtualTimeSeries) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw, /*seed=*/7);
  Options o;
  o.env = env.get();
  o.create_if_missing = true;
  o.write_buffer_size = 256 << 10;
  o.stats_sample_interval_ms = 20;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());

  const std::string value(1024, 'v');
  for (int i = 0; i < 20000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  db->WaitForBackgroundWork();

  std::string text;
  ASSERT_TRUE(db->GetProperty("elmo.timeseries", &text));
  std::vector<IntervalSample> samples;
  uint64_t interval = 0;
  ASSERT_TRUE(TimeSeriesFromJson(text, &samples, &interval).ok()) << text;
  EXPECT_EQ(interval, 20'000u);
  ASSERT_GE(samples.size(), 3u) << text;

  // Virtual-clock timestamps must be strictly monotone, and every
  // interval must be positive.
  for (size_t i = 0; i < samples.size(); i++) {
    EXPECT_GT(samples[i].interval_us, 0u);
    if (i > 0) {
      EXPECT_GT(samples[i].ts_us, samples[i - 1].ts_us);
    }
  }

  // The series must account for the work: interval write counts sum to
  // at most the total, and at least one sample saw writes.
  uint64_t writes = 0;
  for (const auto& s : samples) writes += s.writes;
  EXPECT_GT(writes, 0u);
  EXPECT_LE(writes, 20000u);
  db.reset();
}

TEST(StatsSamplerTest, PropertyWithoutSamplerReturnsEmptySeries) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw, 7);
  Options o;
  o.env = env.get();
  o.create_if_missing = true;  // stats_sample_interval_ms stays 0
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  std::string text;
  ASSERT_TRUE(db->GetProperty("elmo.timeseries", &text));
  std::vector<IntervalSample> samples;
  ASSERT_TRUE(TimeSeriesFromJson(text, &samples).ok());
  EXPECT_TRUE(samples.empty());
  db.reset();
}

}  // namespace
}  // namespace elmo::lsm
