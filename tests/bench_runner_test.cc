#include "bench_kit/bench_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "env/mem_fs.h"
#include "env/sim_env.h"
#include "llm/expert_llm.h"
#include "util/json.h"

namespace elmo::bench {
namespace {

HardwareProfile TestHw() {
  return HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
}

TEST(ScaleCapacities, DividesByteCapacities) {
  lsm::Options o;
  o.write_buffer_size = 64ull << 20;
  o.block_cache_size = 1ull << 30;
  o.max_bytes_for_level_base = 256ull << 20;
  o.target_file_size_base = 64ull << 20;
  lsm::Options scaled = ScaleCapacities(o);
  EXPECT_EQ((64ull << 20) / kCapacityScale, scaled.write_buffer_size);
  EXPECT_EQ((1ull << 30) / kCapacityScale, scaled.block_cache_size);
  // Non-capacity options untouched.
  EXPECT_EQ(o.max_background_jobs, scaled.max_background_jobs);
  EXPECT_EQ(o.compaction_readahead_size, scaled.compaction_readahead_size);
}

TEST(ScaleCapacities, FloorsPreserved) {
  lsm::Options o;
  o.write_buffer_size = 1 << 16;  // tiny already
  lsm::Options scaled = ScaleCapacities(o);
  EXPECT_GE(scaled.write_buffer_size, 64u << 10);
}

TEST(BenchRunner, FillRandomProducesSaneResult) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::FillRandom(20000);
  auto r = runner.Run(spec, lsm::Options());
  EXPECT_EQ("fillrandom", r.workload);
  EXPECT_EQ(20000u, r.ops);
  EXPECT_GT(r.ops_per_sec, 1000.0);
  EXPECT_EQ(20000u, r.write_micros.Count());
  EXPECT_EQ(0u, r.read_micros.Count());
  EXPECT_GT(r.flushes, 0u);
}

TEST(BenchRunner, ReadRandomMeasuresReads) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::ReadRandom(5000, 50000);
  auto r = runner.Run(spec, lsm::Options());
  EXPECT_EQ(5000u, r.read_micros.Count());
  EXPECT_EQ(0u, r.write_micros.Count());
  EXPECT_GT(r.p99_read_us(), 0.0);
}

TEST(BenchRunner, MixedWorkloadSplitsOps) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::ReadRandomWriteRandom(20000);
  auto r = runner.Run(spec, lsm::Options());
  EXPECT_EQ(20000u, r.write_micros.Count() + r.read_micros.Count());
  // Roughly 50/50 split.
  EXPECT_NEAR(10000.0, static_cast<double>(r.write_micros.Count()), 600);
}

TEST(BenchRunner, DeterministicAcrossRuns) {
  BenchRunner a(TestHw());
  BenchRunner b(TestHw());
  auto spec = WorkloadSpec::FillRandom(10000);
  auto ra = a.Run(spec, lsm::Options());
  auto rb = b.Run(spec, lsm::Options());
  EXPECT_EQ(ra.ops_per_sec, rb.ops_per_sec);
  EXPECT_EQ(ra.p99_write_us(), rb.p99_write_us());
}

TEST(BenchRunner, CacheHitRateIsTheUnroundedRatio) {
  // The hit rate is hits / (hits + misses), rounded once where a report
  // prints it; this fixed-seed run's ratio is not a multiple of 1e-4.
  BenchRunner runner(TestHw());
  auto r = runner.Run(WorkloadSpec::ReadRandomWriteRandom(20000),
                      lsm::Options());
  ASSERT_GT(r.block_cache_hit_rate, 0.0);
  ASSERT_LT(r.block_cache_hit_rate, 1.0);
  const double scaled = r.block_cache_hit_rate * 1e4;
  EXPECT_GT(std::abs(scaled - std::round(scaled)), 1e-6)
      << r.block_cache_hit_rate;
}

TEST(BenchRunner, ProbeRunsFewerOps) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::FillRandom(50000);
  auto probe = runner.RunProbe(spec, lsm::Options(), 2000);
  EXPECT_EQ(2000u, probe.ops);
  EXPECT_GT(probe.ops_per_sec, 0.0);
}

// A checkpoint must not change the run it watches: one that never stops
// leaves the result byte-identical, and one that stops before op n
// gives exactly the run of the first n ops.
TEST(BenchRunner, CheckpointLeavesTheRunUnchanged) {
  const HardwareProfile profiles[] = {
      TestHw(), HardwareProfile::Make(2, 4, DeviceModel::SataHdd())};
  const WorkloadSpec specs[] = {
      WorkloadSpec::FillRandom(20000),
      WorkloadSpec::ReadRandom(3000, 20000),
      WorkloadSpec::ReadRandomWriteRandom(8000),
      WorkloadSpec::Mixgraph(8000),
      WorkloadSpec::SeekRandom(500, 20000),
  };
  for (const HardwareProfile& hw : profiles) {
    for (const WorkloadSpec& spec : specs) {
      SCOPED_TRACE(hw.Label() + " " + spec.Describe());
      BenchRunner runner(hw);
      const uint64_t n = spec.num_ops / 10;

      int calls = 0;
      const EarlyStop watch{n, [&](const BenchResult& so_far) {
                              calls++;
                              EXPECT_EQ(n, so_far.ops);
                              EXPECT_GT(so_far.ops_per_sec, 0.0);
                              return false;
                            }};
      EXPECT_EQ(runner.Run(spec, lsm::Options()).ToJson(),
                runner.Run(spec, lsm::Options(), nullptr, watch).ToJson());
      EXPECT_EQ(1, calls);

      BenchResult so_far;
      const EarlyStop stop{n, [&](const BenchResult& r) {
                             so_far = r;
                             return true;
                           }};
      const BenchResult stopped =
          runner.Run(spec, lsm::Options(), nullptr, stop);
      WorkloadSpec prefix = spec;
      prefix.num_ops = n;
      EXPECT_EQ(runner.Run(prefix, lsm::Options()).ToJson(),
                stopped.ToJson());
      EXPECT_EQ(n, stopped.ops);
      // What the checkpoint saw is what the stopped run reports.
      EXPECT_EQ(stopped.ops_per_sec, so_far.ops_per_sec);
      EXPECT_EQ(stopped.timeseries.size(), so_far.timeseries.size());
    }
  }
}

// A run longer than the sampler ring keeps only its tail and says how
// many samples it lost.
TEST(BenchRunner, ReportsSamplesTheRingDropped) {
  lsm::Options opts;
  opts.stats_history_size = 16;
  opts.stats_sample_interval_ms = 1;
  BenchRunner runner(TestHw());
  auto r = runner.Run(WorkloadSpec::FillRandom(20000), opts);
  EXPECT_EQ(16u, r.timeseries.size());
  EXPECT_GT(r.timeseries_dropped, 0u);

  json::Value doc;
  ASSERT_TRUE(json::Parse(r.ToJson(), &doc).ok());
  const json::Value* series = doc.Find("timeseries");
  ASSERT_NE(nullptr, series);
  const json::Value* dropped = series->Find("dropped");
  ASSERT_NE(nullptr, dropped);
  EXPECT_EQ(static_cast<int64_t>(r.timeseries_dropped), dropped->as_int());
}

TEST(BenchRunner, ExpertReadsReportThroughput) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::Mixgraph(5000);
  spec.preload_keys = 2000;
  spec.num_keys = 10000;
  auto r = runner.Run(spec, lsm::Options());
  // The report prints ops/sec rounded to a whole number.
  EXPECT_NEAR(r.ops_per_sec,
              llm::SimulatedExpertLlm::ParsePrompt(r.ToReport())
                  .last_ops_per_sec,
              0.5);
}

TEST(BenchRunner, ThreadsContractWallClock) {
  auto spec1 = WorkloadSpec::ReadRandomWriteRandom(10000);
  spec1.threads = 1;
  auto spec2 = spec1;
  spec2.threads = 2;
  BenchRunner a(TestHw()), b(TestHw());
  auto r1 = a.Run(spec1, lsm::Options());
  auto r2 = b.Run(spec2, lsm::Options());
  EXPECT_GT(r2.ops_per_sec, r1.ops_per_sec * 1.5);
}

// Every benchmark run carries IO-trace and cache-sim evidence: a
// non-empty per-kind breakdown and a >= 4-point miss-ratio curve, both
// in the report text and as embedded JSON.
TEST(BenchRunner, RunProducesIoAndCacheEvidence) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::ReadRandomWriteRandom(20000);
  auto r = runner.Run(spec, lsm::Options());

  ASSERT_TRUE(r.io_analysis.has_value());
  const std::string io = r.io_analysis->ToPromptText();
  EXPECT_NE(io.find("Per-kind IO"), std::string::npos);
  EXPECT_NE(io.find("wal"), std::string::npos);

  ASSERT_TRUE(r.cache_sim.has_value());
  EXPECT_GE(r.cache_sim->curve.size(), 4u);
  const std::string sim =
      r.cache_sim->ToPromptText(r.scaled_block_cache_size);
  EXPECT_NE(sim.find("Miss-ratio curve"), std::string::npos);
  EXPECT_NE(sim.find("(configured)"), std::string::npos);

  const std::string report = r.ToReport();
  EXPECT_NE(report.find("IO & cache evidence:\n" + io + "\n" + sim),
            std::string::npos);

  json::Value doc;
  ASSERT_TRUE(json::Parse(r.ToJson(), &doc).ok());
  const json::Value* io_doc = doc.Find("io_analysis");
  ASSERT_NE(nullptr, io_doc);
  ASSERT_NE(nullptr, io_doc->Find("by_kind"));
  const json::Value* sim_doc = doc.Find("cache_sim");
  ASSERT_NE(nullptr, sim_doc);
  const json::Value* curve = sim_doc->Find("curve");
  ASSERT_NE(nullptr, curve);
  ASSERT_TRUE(curve->is_array());
  EXPECT_GE(curve->as_array().size(), 4u);
}

TEST(BenchRunner, MixgraphUsesVariableValueSizes) {
  BenchRunner runner(TestHw());
  auto spec = WorkloadSpec::Mixgraph(5000);
  spec.preload_keys = 1000;
  auto r = runner.Run(spec, lsm::Options());
  EXPECT_GT(r.ops_per_sec, 0.0);
}

// The SimEnv filesystem under a bench run's live DB.
MemFs* RunFs(lsm::DB* db) {
  Env* env = db->options().env;  // the engine's IO-tracing wrapper
  while (auto* wrapper = dynamic_cast<EnvWrapper*>(env)) {
    env = wrapper->base();
  }
  auto* sim = dynamic_cast<SimEnv*>(env);
  EXPECT_NE(nullptr, sim);
  return sim->fs();
}

// Flips every byte of every SST file the run has written so far.
void CorruptTables(lsm::DB* db) {
  MemFs* fs = RunFs(db);
  std::vector<std::string> children;
  ASSERT_TRUE(fs->GetChildren("/bench/db", &children).ok());
  for (const std::string& name : children) {
    if (name.size() < 4 || name.substr(name.size() - 4) != ".sst") continue;
    auto invert = [](std::string* data) {
      for (char& c : *data) c = static_cast<char>(~c);
    };
    ASSERT_TRUE(fs->EditFile("/bench/db/" + name, invert).ok());
  }
}

TEST(BenchRunner, FailedWriteEndsTheRunAndIsNotCounted) {
  BenchRunner runner(TestHw());
  auto hook = [](lsm::DB* db, uint64_t op) {
    if (op == 1024) RunFs(db)->SetCapacity(1);  // every append fails
  };
  auto r = runner.RunWithHook(WorkloadSpec::FillRandom(20000),
                              lsm::Options(), hook);
  EXPECT_EQ(1u, r.write_errors);
  EXPECT_EQ(1024u, r.ops);
  EXPECT_EQ(r.ops, r.write_micros.Count());
  EXPECT_NE(r.ToJson().find("\"write_errors\": 1"), std::string::npos);
}

TEST(BenchRunner, FailedReadsAndScansAreErrorsNotOps) {
  auto hook = [](lsm::DB* db, uint64_t op) {
    if (op == 0) CorruptTables(db);
  };
  BenchRunner runner(TestHw());
  auto reads = runner.RunWithHook(WorkloadSpec::ReadRandom(2000, 20000),
                                  lsm::Options(), hook);
  EXPECT_GT(reads.read_errors, 0u);
  EXPECT_EQ(2000u, reads.ops + reads.read_errors);

  auto scan_spec = WorkloadSpec::SeekRandom(500, 20000);
  auto scans = runner.RunWithHook(scan_spec, lsm::Options(), hook);
  EXPECT_GT(scans.scan_errors, 0u);
  EXPECT_EQ(500u, scans.ops + scans.scan_errors);

  // NotFound is a completed read: half the keys read were never loaded.
  auto miss_spec = WorkloadSpec::ReadRandom(2000, 20000);
  miss_spec.num_keys = 40000;
  auto misses = runner.Run(miss_spec, lsm::Options());
  EXPECT_EQ(0u, misses.errors());
  EXPECT_EQ(2000u, misses.ops);
}

}  // namespace
}  // namespace elmo::bench
