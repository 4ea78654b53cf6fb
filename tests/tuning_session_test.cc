// TuningSession end-to-end: scripted LLMs drive deterministic keep /
// revert / reject paths; the simulated expert must actually improve
// the store.
#include "elmo/tuning_session.h"

#include <gtest/gtest.h>

#include "elmo/prompt_generator.h"
#include "llm/expert_llm.h"

namespace elmo::tune {
namespace {

HardwareProfile TestHw() {
  return HardwareProfile::Make(2, 4, DeviceModel::SataHdd());
}

bench::WorkloadSpec SmallFill() {
  return bench::WorkloadSpec::FillRandom(60000);
}

TEST(TuningSession, BaselineAlwaysRecorded) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({"nothing useful"});
  TuningConfig cfg;
  cfg.max_iterations = 1;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  EXPECT_GT(out.baseline.ops_per_sec, 0);
  EXPECT_EQ(1u, out.iterations.size());
  // Unusable response: not kept, flagged as format failure.
  EXPECT_FALSE(out.iterations[0].kept);
  EXPECT_FALSE(out.iterations[0].safeguard.format_ok);
  // Best stays at baseline.
  EXPECT_EQ(out.baseline.ops_per_sec, out.best_result.ops_per_sec);
}

TEST(TuningSession, GoodSuggestionKeptAndFinalFileUpdated) {
  bench::BenchRunner runner(TestHw());
  // A genuinely good HDD fillrandom change.
  llm::ScriptedLlm llm({
      "Increase parallelism and smooth syncs.\n"
      "```ini\n"
      "max_background_jobs = 4\n"
      "wal_bytes_per_sync = 1048576\n"
      "bytes_per_sync = 1048576\n"
      "max_write_buffer_number = 4\n"
      "```\n",
  });
  TuningConfig cfg;
  cfg.max_iterations = 1;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  ASSERT_EQ(1u, out.iterations.size());
  EXPECT_EQ(4u, out.iterations[0].applied_changes.size());
  if (out.iterations[0].kept) {
    EXPECT_NE(out.final_options_file.find("max_background_jobs = 4"),
              std::string::npos);
    EXPECT_GE(out.best_result.ops_per_sec, out.baseline.ops_per_sec);
  }
}

TEST(TuningSession, CertifyGateRunsOnKeptCandidates) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({
      "```ini\n"
      "max_background_jobs = 4\n"
      "wal_bytes_per_sync = 1048576\n"
      "```\n",
  });
  TuningConfig cfg;
  cfg.max_iterations = 1;
  cfg.certify_ops = 800;  // crash-certify anything the flagger keeps
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  ASSERT_EQ(1u, out.iterations.size());
  if (out.iterations[0].kept) {
    // A kept candidate must have passed through certification.
    EXPECT_EQ("certified: ok", out.iterations[0].certify_summary);
  }
}

TEST(TuningSession, BadConfigRevertedAndReportedToLlm) {
  bench::BenchRunner runner(TestHw());
  // Iteration 1: a pathological config; iteration 2 inspects the
  // deterioration note (ScriptedLlm ignores it, but the session's
  // history must mark the revert).
  llm::ScriptedLlm llm({
      "```ini\n"
      "write_buffer_size = 65536\n"  // pathologically tiny memtable
      "max_background_jobs = 1\n"
      "```\n",
      "```ini\nmax_background_jobs = 4\n```\n",
  });
  TuningConfig cfg;
  cfg.max_iterations = 2;
  cfg.probe_fraction = 0;  // force full runs so Judge() decides
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  ASSERT_EQ(2u, out.iterations.size());
  EXPECT_FALSE(out.iterations[0].kept);
  // Best options must NOT contain the bad change.
  EXPECT_EQ(out.final_options_file.find("write_buffer_size = 65536"),
            std::string::npos);
}

TEST(TuningSession, EarlyAbortPathTriggers) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({
      "```ini\nwrite_buffer_size = 65536\nmax_background_jobs = 1\n```\n",
  });
  TuningConfig cfg;
  cfg.max_iterations = 1;
  cfg.probe_fraction = 0.2;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  ASSERT_EQ(1u, out.iterations.size());
  if (out.iterations[0].early_aborted) {
    EXPECT_FALSE(out.iterations[0].kept);
    EXPECT_NE(out.iterations[0].decision_reason.find("early"),
              std::string::npos);
  }
}

TEST(TuningSession, BlacklistedOnlyResponseRejected) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({"```ini\ndisable_wal = true\n```\n"});
  TuningConfig cfg;
  cfg.max_iterations = 1;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  ASSERT_EQ(1u, out.iterations.size());
  EXPECT_FALSE(out.iterations[0].kept);
  EXPECT_EQ(1u, out.iterations[0].safeguard.rejected_blacklisted.size());
  EXPECT_NE(out.final_options_file.find("disable_wal = false"),
            std::string::npos);
}

TEST(TuningSession, ExpertImprovesOverDefaults) {
  bench::BenchRunner runner(TestHw());
  llm::SimulatedExpertLlm gpt;
  TuningConfig cfg;
  cfg.max_iterations = 5;
  TuningSession session(&runner, &gpt, SmallFill(), cfg);
  auto out = session.Run();
  EXPECT_GE(out.best_result.ops_per_sec, out.baseline.ops_per_sec);
  EXPECT_GE(out.ThroughputGain(), 1.0);
  EXPECT_EQ(5u, out.iterations.size());
}

TEST(TuningSession, DeterministicEndToEnd) {
  auto run = [] {
    bench::BenchRunner runner(TestHw());
    llm::SimulatedExpertLlm gpt;
    TuningConfig cfg;
    cfg.max_iterations = 3;
    TuningSession session(&runner, &gpt, SmallFill(), cfg);
    return session.Run();
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); i++) {
    EXPECT_EQ(a.iterations[i].result.ops_per_sec,
              b.iterations[i].result.ops_per_sec);
    EXPECT_EQ(a.iterations[i].kept, b.iterations[i].kept);
  }
}

TEST(TuningSession, PromptCarriesAllSections) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({"```ini\nmax_background_jobs = 4\n```\n"});
  TuningConfig cfg;
  cfg.max_iterations = 1;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  const std::string& prompt = out.iterations[0].prompt;
  EXPECT_NE(prompt.find("## System Information"), std::string::npos);
  EXPECT_NE(prompt.find("CPU cores: 2"), std::string::npos);
  EXPECT_NE(prompt.find("SATA HDD"), std::string::npos);
  EXPECT_NE(prompt.find("## Workload"), std::string::npos);
  EXPECT_NE(prompt.find("fillrandom"), std::string::npos);
  EXPECT_NE(prompt.find("## Current Configuration"), std::string::npos);
  EXPECT_NE(prompt.find("write_buffer_size"), std::string::npos);
  EXPECT_NE(prompt.find("## Last Benchmark Report"), std::string::npos);
  EXPECT_NE(prompt.find("ops/sec"), std::string::npos);
  EXPECT_NE(prompt.find("Do not modify: disable_wal"), std::string::npos);
  // The span trace captured during the benchmark surfaces as a p99
  // decomposition the model can act on.
  EXPECT_NE(prompt.find("## Latency Attribution Evidence"),
            std::string::npos);
  EXPECT_NE(prompt.find("p99 tail breakdown"), std::string::npos);
}

TEST(TuningSession, PromptHoldsEveryEvidenceSectionOfTheBestRun) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({"```ini\nmax_background_jobs = 4\n```\n"});
  TuningConfig cfg;
  cfg.max_iterations = 1;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  // Iteration 1 is prompted with the baseline as the best run.
  const bench::BenchResult& best = out.baseline;
  const std::string& prompt = out.iterations[0].prompt;
  const std::string sections[] = {
      best.ToReport(),
      bench::TimeSeriesTable(best.timeseries, 12),
      best.IoCacheEvidence(),
      best.LatencyAttributionEvidence(),
      best.HealthEvidence(),
  };
  for (const std::string& section : sections) {
    ASSERT_FALSE(section.empty());
    EXPECT_NE(prompt.find(section), std::string::npos) << section;
  }
  for (const char* heading :
       {"## Last Benchmark Report", "## Telemetry Over The Run",
        "## IO & Cache Evidence", "## Latency Attribution Evidence",
        "## Health & Diagnosis Evidence"}) {
    EXPECT_NE(prompt.find(heading), std::string::npos) << heading;
  }
}

// Minimal inputs whose evidence comes from `best`.
PromptInputs InputsFor(const bench::BenchResult& best) {
  PromptInputs in;
  in.iteration = 2;
  in.workload_description = "fillrandom";
  in.current_options_ini = "k = v\n";
  in.best = &best;
  return in;
}

TEST(PromptGenerator, NoBestRunLeavesOutEveryEvidenceSection) {
  PromptInputs in;
  in.workload_description = "fillrandom";
  in.current_options_ini = "k = v\n";
  const std::string p = PromptGenerator::Generate(in);
  EXPECT_EQ(p.find("## Last Benchmark Report"), std::string::npos);
  EXPECT_EQ(p.find("Evidence"), std::string::npos);
  EXPECT_NE(p.find("## Instructions"), std::string::npos);
}

TEST(PromptGenerator, TimeseriesRendersTelemetrySection) {
  bench::BenchResult best;
  lsm::IntervalSample s;
  s.ts_us = 250000;
  s.interval_us = 250000;
  s.ops = 50000;
  s.ops_per_sec = 200000.0;
  s.stall_fraction = 0.25;
  best.timeseries = {s};
  PromptInputs in = InputsFor(best);
  std::string p = PromptGenerator::Generate(in);
  EXPECT_NE(p.find("## Telemetry Over The Run"), std::string::npos);
  EXPECT_NE(p.find("ops/s"), std::string::npos);
  EXPECT_NE(p.find("200000"), std::string::npos);

  // Without samples the section is omitted entirely.
  best.timeseries.clear();
  p = PromptGenerator::Generate(in);
  EXPECT_EQ(p.find("## Telemetry Over The Run"), std::string::npos);
}

TEST(PromptGenerator, IoCacheEvidenceSectionRendersWhenPresent) {
  bench::BenchResult best;
  best.io_breakdown =
      "Per-kind IO (from the engine's IO trace):\n"
      "- wal: 10 ops, 4096 bytes (50.0%)\n";
  best.cache_sim_summary =
      "Miss-ratio curve (ghost LRU replay of the block-cache trace):\n"
      "- 1 MiB: miss 40.0%\n";
  PromptInputs in = InputsFor(best);
  std::string p = PromptGenerator::Generate(in);
  EXPECT_NE(p.find("## IO & Cache Evidence"), std::string::npos);
  EXPECT_NE(p.find("Per-kind IO"), std::string::npos);
  EXPECT_NE(p.find("Miss-ratio curve"), std::string::npos);

  // Without evidence the section is omitted entirely.
  best.io_breakdown.clear();
  best.cache_sim_summary.clear();
  p = PromptGenerator::Generate(in);
  EXPECT_EQ(p.find("## IO & Cache Evidence"), std::string::npos);
}

TEST(PromptGenerator, LatencyAttributionSectionRendersWhenPresent) {
  bench::BenchResult best;
  best.span_attribution_summary =
      "write: p50=9us p99=120us p999=400us | p99 tail breakdown: "
      "wal_sync 62.0% stall_wait 21.0% self 17.0%\n";
  PromptInputs in = InputsFor(best);
  std::string p = PromptGenerator::Generate(in);
  EXPECT_NE(p.find("## Latency Attribution Evidence"), std::string::npos);
  EXPECT_NE(p.find("wal_sync 62.0%"), std::string::npos);

  // Without attribution the section is omitted entirely.
  best.span_attribution_summary.clear();
  p = PromptGenerator::Generate(in);
  EXPECT_EQ(p.find("## Latency Attribution Evidence"), std::string::npos);
}

TEST(PromptGenerator, DeteriorationNoteIncludedWhenSet) {
  PromptInputs in;
  in.iteration = 3;
  in.workload_description = "fillrandom: stuff";
  in.current_options_ini = "k = v\n";
  in.deterioration_note = "The previous configuration DECREASED performance.";
  in.history = {"Iteration 1: 100 ops/sec (kept)"};
  std::string p = PromptGenerator::Generate(in);
  EXPECT_NE(p.find("## Feedback"), std::string::npos);
  EXPECT_NE(p.find("DECREASED"), std::string::npos);
  EXPECT_NE(p.find("## Tuning History"), std::string::npos);
  EXPECT_NE(p.find("tuning iteration 3"), std::string::npos);
}

}  // namespace
}  // namespace elmo::tune
