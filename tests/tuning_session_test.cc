// TuningSession end-to-end: scripted LLMs drive deterministic keep /
// revert / reject paths; the simulated expert must actually improve
// the store.
#include "elmo/tuning_session.h"

#include <gtest/gtest.h>

#include "elmo/prompt_generator.h"
#include "llm/expert_llm.h"
#include "lsm/options_schema.h"

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
  const IterationRecord& rec = out.iterations[0];
  EXPECT_TRUE(rec.early_aborted);
  EXPECT_FALSE(rec.kept);
  EXPECT_EQ(0u, rec.decision_reason.find("early monitor abort: probe "
                                         "throughput"))
      << rec.decision_reason;
  // The run stopped at the checkpoint: 20% of the workload.
  EXPECT_EQ(12000u, rec.result.ops);
}

// One benchmark run per candidate: an iteration the monitor aborts
// reports exactly the run of its first probe_ops ops, and one it lets
// through reports exactly the plain full run.
TEST(TuningSession, EachIterationIsOneRunOfItsCandidate) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({
      "```ini\nwrite_buffer_size = 65536\nmax_background_jobs = 1\n```\n",
      "```ini\nmax_background_jobs = 4\n```\n",
  });
  TuningConfig cfg;
  cfg.max_iterations = 2;
  cfg.probe_fraction = 0.2;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  ASSERT_EQ(2u, out.iterations.size());
  ASSERT_TRUE(out.iterations[0].early_aborted);
  ASSERT_FALSE(out.iterations[1].early_aborted);

  bench::BenchRunner reference(TestHw());
  for (const IterationRecord& rec : out.iterations) {
    SCOPED_TRACE(rec.iteration);
    // Iteration 1 is reverted, so both candidates start from defaults.
    lsm::Options candidate;
    for (const auto& [name, value] : rec.applied_changes) {
      ASSERT_TRUE(
          lsm::OptionsSchema::Instance().Find(name)->set(&candidate, value)
              .ok());
    }
    bench::WorkloadSpec spec = SmallFill();
    if (rec.early_aborted) spec.num_ops = 12000;  // probe_ops
    EXPECT_EQ(reference.Run(spec, candidate).ToJson(), rec.result.ToJson());
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
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    n++;
  }
  return n;
}

// The report carries every piece of the best run's evidence, and the
// prompt shows each piece exactly once.
TEST(TuningSession, PromptShowsEachPieceOfEvidenceOnce) {
  bench::BenchRunner runner(TestHw());
  llm::ScriptedLlm llm({"```ini\nmax_background_jobs = 4\n```\n"});
  TuningConfig cfg;
  cfg.max_iterations = 1;
  TuningSession session(&runner, &llm, SmallFill(), cfg);
  auto out = session.Run();
  // Iteration 1 is prompted with the baseline as the best run.
  const bench::BenchResult& best = out.baseline;
  const std::string& prompt = out.iterations[0].prompt;
  ASSERT_TRUE(best.io_analysis.has_value());
  ASSERT_TRUE(best.cache_sim.has_value());
  ASSERT_TRUE(best.span_attribution.has_value());
  ASSERT_TRUE(best.health.has_value());
  ASSERT_FALSE(best.timeseries.empty());
  const std::string table = bench::TimeSeriesTable(best.timeseries, 0);
  const std::string pieces[] = {
      best.io_analysis->ToPromptText(),
      best.cache_sim->ToPromptText(best.scaled_block_cache_size),
      best.span_attribution->ToText(),
      best.health->ToText(),
      // The table's column header: any rendering of the series has it.
      table.substr(0, table.find('\n') + 1),
  };
  for (const std::string& piece : pieces) {
    ASSERT_FALSE(piece.empty());
    EXPECT_EQ(CountOf(prompt, piece), 1u) << piece;
  }
  EXPECT_EQ(CountOf(prompt, "Throughput over time:\n"), 1u);
}

TEST(PromptGenerator, NoBestRunLeavesOutTheReport) {
  PromptInputs in;
  in.workload_description = "fillrandom";
  in.current_options_ini = "k = v\n";
  const std::string p = PromptGenerator::Generate(in);
  EXPECT_EQ(p.find("## Last Benchmark Report"), std::string::npos);
  EXPECT_NE(p.find("## Instructions"), std::string::npos);
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
