// DB-on-SimEnv integration: virtual time must move, devices must
// differ, option changes must shift performance in the documented
// directions, and everything must be deterministic.
#include <gtest/gtest.h>

#include <memory>

#include "env/sim_env.h"
#include "lsm/db.h"

namespace elmo::lsm {
namespace {

struct RunResult {
  uint64_t elapsed_us;
  uint64_t stall_micros;
  uint64_t writeback_stalls;
};

// Write `n` ~1 KiB entries on the given hardware/options; return the
// virtual elapsed time.
RunResult RunFill(const HardwareProfile& hw, Options base, int n,
                  uint64_t seed = 42) {
  auto env = std::make_unique<SimEnv>(hw, seed);
  base.env = env.get();
  base.create_if_missing = true;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(base, "/db", &db).ok());

  const std::string value(1024, 'v');
  uint64_t start = env->NowMicros();
  for (int i = 0; i < n; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i * 7919 % n);
    Status s = db->Put({}, key, value);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  uint64_t elapsed = env->NowMicros() - start;
  RunResult r;
  r.elapsed_us = elapsed;
  r.stall_micros = db->stats().Get(Ticker::kWriteStallMicros);
  r.writeback_stalls = env->io_stats().writeback_stalls;
  db.reset();
  return r;
}

TEST(SimDbTest, VirtualTimeAdvances) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  Options o;
  o.write_buffer_size = 1 << 20;
  RunResult r = RunFill(hw, o, 5000);
  EXPECT_GT(r.elapsed_us, 0u);
  // 5000 writes should take between 1ms and 100s of virtual time.
  EXPECT_LT(r.elapsed_us, 100'000'000ull);
}

TEST(SimDbTest, Deterministic) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  Options o;
  o.write_buffer_size = 1 << 20;
  RunResult a = RunFill(hw, o, 5000);
  RunResult b = RunFill(hw, o, 5000);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.stall_micros, b.stall_micros);
}

// A decorator that forwards everything, like a user's own Env wrapper.
class PassThroughEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;
};

// Fills a fresh DB with tiny memtables, on a bare SimEnv or on one
// behind PassThroughEnv; returns the virtual time at the end.
uint64_t FillAndSettle(bool wrapped) {
  SimEnv sim(HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()), 42);
  PassThroughEnv wrapper(&sim);
  Options o;
  o.env = wrapped ? static_cast<Env*>(&wrapper) : &sim;
  o.create_if_missing = true;
  o.write_buffer_size = 64 << 10;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(o, "/db", &db).ok());
  const std::string value(256, 'v');
  for (int i = 0; i < 3000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016d", i * 7919 % 3000);
    EXPECT_TRUE(db->Put({}, key, value).ok());
  }
  EXPECT_TRUE(db->WaitForBackgroundWork().ok());
  EXPECT_GT(db->stats().Get(Ticker::kFlushCount), 0u);
  db.reset();
  return sim.NowMicros();
}

// A SimEnv below any EnvWrapper still takes the deterministic inline
// path: same-seed runs end at the same virtual time, the same as on the
// bare SimEnv.
TEST(SimDbTest, SimEnvBehindAnEnvWrapperStaysDeterministic) {
  const uint64_t wrapped = FillAndSettle(true);
  EXPECT_GT(wrapped, 0u);
  EXPECT_EQ(wrapped, FillAndSettle(true));
  EXPECT_EQ(wrapped, FillAndSettle(false));
}

TEST(SimDbTest, HddSlowerThanNvme) {
  Options o;
  o.write_buffer_size = 1 << 20;
  RunResult ssd = RunFill(HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()),
                          o, 20000);
  RunResult hdd = RunFill(HardwareProfile::Make(4, 4, DeviceModel::SataHdd()),
                          o, 20000);
  EXPECT_GT(hdd.elapsed_us, ssd.elapsed_us);
}

TEST(SimDbTest, SmallMemtableStallsMore) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
  Options small;
  small.write_buffer_size = 256 << 10;
  Options big = small;
  big.write_buffer_size = 8 << 20;
  RunResult s = RunFill(hw, small, 20000);
  RunResult b = RunFill(hw, big, 20000);
  EXPECT_GT(s.elapsed_us, b.elapsed_us)
      << "tiny memtables should flush constantly and stall writers";
}

TEST(SimDbTest, WalBytesPerSyncReducesWritebackBursts) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
  Options bursty;
  bursty.write_buffer_size = 4 << 20;
  Options smooth = bursty;
  smooth.wal_bytes_per_sync = 1 << 20;
  smooth.bytes_per_sync = 1 << 20;
  RunResult a = RunFill(hw, bursty, 60000);
  RunResult b = RunFill(hw, smooth, 60000);
  EXPECT_GT(a.writeback_stalls, b.writeback_stalls)
      << "incremental syncing should avoid forced OS writebacks";
}

TEST(SimDbTest, MoreBackgroundJobsHelpOnFastDevice) {
  auto hw = HardwareProfile::Make(4, 8, DeviceModel::NvmeSsd());
  Options one;
  one.write_buffer_size = 1 << 20;
  one.max_background_jobs = 1;
  Options four = one;
  four.max_background_jobs = 4;
  RunResult a = RunFill(hw, one, 40000);
  RunResult b = RunFill(hw, four, 40000);
  EXPECT_GE(a.elapsed_us, b.elapsed_us);
}

TEST(SimDbTest, OvercommittingMemoryIsPenalized) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  Options sane;
  sane.write_buffer_size = 8 << 20;
  Options greedy = sane;
  // 2 GiB memtables x4 + cache blows through the 4 GiB budget.
  greedy.write_buffer_size = 2ull << 30;
  greedy.max_write_buffer_number = 4;
  greedy.block_cache_size = 2ull << 30;
  RunResult a = RunFill(hw, sane, 10000);
  RunResult g = RunFill(hw, greedy, 10000);
  EXPECT_GT(g.elapsed_us, a.elapsed_us)
      << "paging penalty should punish overcommitted configs";
}

TEST(SimDbTest, ReadsBenefitFromBloomFilters) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  auto run_reads = [&](int bloom_bits) {
    auto env = std::make_unique<SimEnv>(hw, 7);
    Options o;
    o.env = env.get();
    o.write_buffer_size = 1 << 20;
    o.bloom_filter_bits_per_key = bloom_bits;
    o.level0_file_num_compaction_trigger = 100;  // keep many L0 files
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(o, "/db", &db).ok());
    const std::string value(512, 'v');
    // Only even keys exist, so odd keys are absent but inside every
    // file's key range — the worst case for filterless lookups.
    for (int i = 0; i < 20000; i += 2) {
      char key[32];
      snprintf(key, sizeof(key), "%016d", i);
      EXPECT_TRUE(db->Put({}, key, value).ok());
    }
    uint64_t start = env->NowMicros();
    std::string v;
    for (int i = 1; i < 4000; i += 2) {
      char key[32];
      snprintf(key, sizeof(key), "%016d", i);
      EXPECT_TRUE(db->Get({}, key, &v).IsNotFound());
    }
    return env->NowMicros() - start;
  };
  uint64_t without = run_reads(0);
  uint64_t with = run_reads(10);
  EXPECT_GT(without, with)
      << "negative lookups without filters must touch many files";
}

TEST(SimDbTest, CompactionReadaheadHelpsOnHdd) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
  Options no_ra;
  no_ra.write_buffer_size = 1 << 20;
  no_ra.compaction_readahead_size = 0;
  Options ra = no_ra;
  ra.compaction_readahead_size = 4 << 20;
  RunResult a = RunFill(hw, no_ra, 40000);
  RunResult b = RunFill(hw, ra, 40000);
  EXPECT_GE(a.elapsed_us, b.elapsed_us);
}

TEST(SimDbTest, CorrectnessUnchangedUnderSim) {
  auto hw = HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
  auto env = std::make_unique<SimEnv>(hw, 99);
  Options o;
  o.env = env.get();
  o.write_buffer_size = 64 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db->Put({}, "key" + std::to_string(i), "val" + std::to_string(i))
            .ok());
  }
  for (int i = 0; i < 3000; i += 111) {
    std::string v;
    ASSERT_TRUE(db->Get({}, "key" + std::to_string(i), &v).ok());
    EXPECT_EQ("val" + std::to_string(i), v);
  }
  // Reopen on the same SimEnv: recovery must work under the device
  // model too.
  db.reset();
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  std::string v;
  ASSERT_TRUE(db->Get({}, "key42", &v).ok());
  EXPECT_EQ("val42", v);
}

}  // namespace
}  // namespace elmo::lsm
