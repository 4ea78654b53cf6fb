// Block-cache trace + ghost-LRU simulator: record framing, corruption
// rejection, known-answer LRU replay, and the accuracy contract — the
// simulated hit ratio at the configured capacity must track the live
// cache's measured hit ratio.
#include "bench_kit/cache_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include "env/sim_env.h"
#include "lsm/db.h"
#include "table/block_cache_tracer.h"

namespace elmo {
namespace {

class CacheTraceTest : public ::testing::Test {
 protected:
  CacheTraceTest()
      : env_(HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd()), 42),
        tracer_(&env_) {}

  SimEnv env_;
  BlockCacheTracer tracer_;
};

TEST_F(CacheTraceTest, WriteReadRoundTrip) {
  ASSERT_TRUE(tracer_.Start("/cache.trace", env_.NowMicros()).ok());
  EXPECT_TRUE(tracer_.active());
  tracer_.Record(TraceBlockType::kData, /*hit=*/false, /*fill=*/true,
                 /*level=*/1, /*file_number=*/7, /*offset=*/4096,
                 /*charge=*/4111);
  tracer_.Record(TraceBlockType::kIndex, /*hit=*/true, /*fill=*/true,
                 /*level=*/-1, /*file_number=*/7, /*offset=*/65536,
                 /*charge=*/900);
  uint64_t records = 0;
  ASSERT_TRUE(tracer_.Stop(&records).ok());
  EXPECT_EQ(2u, records);
  EXPECT_FALSE(tracer_.active());

  BlockCacheTraceReader reader(&env_);
  ASSERT_TRUE(reader.Open("/cache.trace").ok());
  BlockCacheAccessRecord rec;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_EQ(TraceBlockType::kData, rec.type);
  EXPECT_FALSE(rec.hit);
  EXPECT_TRUE(rec.fill);
  EXPECT_EQ(1, rec.level);
  EXPECT_EQ(7u, rec.file_number);
  EXPECT_EQ(4096u, rec.offset);
  EXPECT_EQ(4111u, rec.charge);
  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_EQ(TraceBlockType::kIndex, rec.type);
  EXPECT_TRUE(rec.hit);
  EXPECT_EQ(-1, rec.level);
  ASSERT_TRUE(reader.Next(&rec, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(CacheTraceTest, RecordIsNoOpWithoutActiveTrace) {
  tracer_.Record(TraceBlockType::kData, false, true, 0, 1, 0, 100);
  // No trace was started; nothing to stop.
  EXPECT_FALSE(tracer_.Stop(nullptr).ok());
}

TEST_F(CacheTraceTest, CorruptedTraceRejected) {
  ASSERT_TRUE(tracer_.Start("/cache.trace", env_.NowMicros()).ok());
  tracer_.Record(TraceBlockType::kData, false, true, 0, 1, 0, 100);
  ASSERT_TRUE(tracer_.Stop(nullptr).ok());

  std::string contents;
  ASSERT_TRUE(env_.ReadFileToString("/cache.trace", &contents).ok());
  std::string corrupt = contents;
  corrupt[corrupt.size() - 2] ^= 0x01;
  ASSERT_TRUE(env_.WriteStringToFile(corrupt, "/bad.trace").ok());

  BlockCacheTraceReader reader(&env_);
  ASSERT_TRUE(reader.Open("/bad.trace").ok());
  BlockCacheAccessRecord rec;
  bool eof = false;
  Status s = reader.Next(&rec, &eof);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // The simulator surfaces the same corruption instead of a bogus curve.
  bench::CacheSimResult result;
  s = bench::SimulateCacheTrace(&env_, "/bad.trace", {1024}, 0, &result);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// Known-answer replay: a cyclic scan over 3 blocks against a 2-block
// ghost is all misses (LRU's pathological case); a large-enough ghost
// hits on every revisit.
TEST_F(CacheTraceTest, GhostLruKnownAnswer) {
  ASSERT_TRUE(tracer_.Start("/cache.trace", env_.NowMicros()).ok());
  for (int round = 0; round < 10; round++) {
    for (uint64_t block = 0; block < 3; block++) {
      tracer_.Record(TraceBlockType::kData, false, true, 0,
                     /*file_number=*/1, /*offset=*/block * 100,
                     /*charge=*/100);
    }
  }
  ASSERT_TRUE(tracer_.Stop(nullptr).ok());

  // Single shard so capacities are exact.
  bench::CacheSimResult result;
  ASSERT_TRUE(bench::SimulateCacheTrace(&env_, "/cache.trace",
                                        {200, 300, 600}, /*num_shard_bits=*/0,
                                        &result)
                  .ok());
  ASSERT_EQ(3u, result.curve.size());
  EXPECT_EQ(30u, result.records);
  EXPECT_EQ(3u, result.unique_blocks);
  // capacity 200 (2 blocks): cyclic scan of 3 evicts the next victim
  // right before its reuse — every access misses.
  EXPECT_EQ(0u, result.curve[0].hits);
  // capacity 300 (3 blocks): only the 3 cold misses.
  EXPECT_EQ(3u, result.curve[1].misses);
  EXPECT_EQ(27u, result.curve[1].hits);
  // Bigger never hurts.
  EXPECT_EQ(27u, result.curve[2].hits);
  EXPECT_DOUBLE_EQ(1.0, result.curve[0].miss_ratio);
  EXPECT_DOUBLE_EQ(0.1, result.curve[1].miss_ratio);
}

TEST_F(CacheTraceTest, DefaultCapacityLadder) {
  auto caps = bench::DefaultCapacityLadder(1 << 20);
  ASSERT_GE(caps.size(), 4u);  // the prompt needs a >= 4-point curve
  for (size_t i = 1; i < caps.size(); i++) {
    EXPECT_LT(caps[i - 1], caps[i]);
  }
  EXPECT_EQ(1u << 18, caps.front());
  EXPECT_EQ(8u << 20, caps.back());
}

// The accuracy contract behind the miss-ratio curve: replaying the
// trace at the capacity the engine actually ran with must reproduce the
// live cache's measured hit ratio within 2 points.
TEST(CacheSimAccuracy, SimTracksLiveHitRatioAtConfiguredCapacity) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  SimEnv env(hw, 42);
  lsm::Options opts;
  opts.env = &env;
  opts.create_if_missing = true;
  opts.write_buffer_size = 64 << 10;
  opts.block_cache_size = 128 << 10;

  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(opts, "/db", &db).ok());
  // Trace from before the first access so trace and live stats cover
  // the same window.
  ASSERT_TRUE(db->StartBlockCacheTrace("/cache.trace").ok());

  const std::string value(512, 'v');
  for (int i = 0; i < 4000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i % 1000);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  std::string out;
  unsigned int rng = 12345;
  for (int i = 0; i < 3000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", rand_r(&rng) % 1000);
    db->Get({}, key, &out);
  }

  ASSERT_TRUE(db->EndBlockCacheTrace().ok());
  std::string prop;
  ASSERT_TRUE(db->GetProperty("elmo.block-cache-hit-rate", &prop));
  const double live_hit_ratio = atof(prop.c_str());
  db.reset();

  bench::CacheSimResult result;
  ASSERT_TRUE(bench::SimulateCacheTrace(
                  &env, "/cache.trace",
                  bench::DefaultCapacityLadder(opts.block_cache_size),
                  /*num_shard_bits=*/4, &result)
                  .ok());
  ASSERT_GT(result.records, 0u);

  const bench::CacheSimPoint* at_configured = nullptr;
  for (const auto& p : result.curve) {
    if (p.capacity == opts.block_cache_size) at_configured = &p;
  }
  ASSERT_NE(nullptr, at_configured);
  EXPECT_NEAR(live_hit_ratio, at_configured->hit_ratio, 0.02)
      << "live=" << live_hit_ratio << " sim=" << at_configured->hit_ratio;
}

}  // namespace
}  // namespace elmo
