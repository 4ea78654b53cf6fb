#include "bench_kit/report.h"

#include <gtest/gtest.h>

#include "llm/expert_llm.h"

namespace elmo::bench {
namespace {

BenchResult MakeResult() {
  BenchResult r;
  r.workload = "fillrandom";
  r.ops = 400000;
  r.elapsed_seconds = 1.25;
  r.ops_per_sec = 320000;
  r.mb_per_sec = 35.4;
  for (int i = 0; i < 10000; i++) r.write_micros.Add(3.0 + (i % 5));
  r.write_stall_micros = 12345;
  r.flushes = 42;
  r.compactions = 17;
  r.level_summary = "files[ 2 3 0 0 0 0 0 ]";
  return r;
}

TEST(Report, ContainsDbBenchStyleFields) {
  std::string text = MakeResult().ToReport();
  EXPECT_NE(text.find("fillrandom"), std::string::npos);
  EXPECT_NE(text.find("micros/op"), std::string::npos);
  EXPECT_NE(text.find("320000 ops/sec"), std::string::npos);
  EXPECT_NE(text.find("Microseconds per write:"), std::string::npos);
  EXPECT_NE(text.find("P99:"), std::string::npos);
  EXPECT_NE(text.find("flushes 42"), std::string::npos);
  EXPECT_NE(text.find("LSM shape"), std::string::npos);
}

// The report's throughput line is what the simulated expert reads back.
TEST(Report, ExpertReadsThroughputLine) {
  BenchResult r = MakeResult();
  for (int i = 0; i < 1000; i++) r.read_micros.Add(150.0);
  const llm::PromptFacts facts =
      llm::SimulatedExpertLlm::ParsePrompt(r.ToReport());
  EXPECT_EQ(320000.0, facts.last_ops_per_sec);
}

TEST(Report, P99AccessorsHandleEmptyHistograms) {
  BenchResult r;
  EXPECT_EQ(0.0, r.p99_write_us());
  EXPECT_EQ(0.0, r.p99_read_us());
  r.read_micros.Add(500);
  EXPECT_GT(r.p99_read_us(), 0.0);
  EXPECT_EQ(0.0, r.p99_write_us());
}

TEST(Report, WriteOnlyReportOmitsReadHistogram) {
  BenchResult r = MakeResult();
  std::string text = r.ToReport();
  EXPECT_EQ(text.find("Microseconds per read:"), std::string::npos);
}

}  // namespace
}  // namespace elmo::bench
