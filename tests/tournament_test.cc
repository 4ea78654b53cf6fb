#include "elmo/tournament.h"

#include <gtest/gtest.h>

#include "env/device_model.h"
#include "env/hardware_profile.h"

namespace elmo::tune {
namespace {

TournamentConfig TinyConfig() {
  TournamentConfig cfg;
  cfg.hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  cfg.workload = bench::WorkloadSpec::Mixgraph(15000);
  cfg.budget = 3;
  cfg.seed = 42;
  return cfg;
}

TEST(Tournament, RunsAllContendersUnderIdenticalBudgets) {
  TournamentConfig cfg = TinyConfig();
  TournamentReport report = RunTournament(cfg);

  ASSERT_EQ(report.runs.size(), 4u);
  EXPECT_EQ(report.runs[0].name, "llm");
  EXPECT_EQ(report.runs[1].name, "cost_model");
  EXPECT_EQ(report.runs[2].name, "grid");
  EXPECT_EQ(report.runs[3].name, "random");
  EXPECT_GT(report.default_ops_per_sec, 0);

  for (const auto& r : report.runs) {
    // Identical budgets: defaults baseline + `budget` proposals each.
    ASSERT_EQ(r.trial_ops_per_sec.size(),
              static_cast<size_t>(cfg.budget) + 1);
    ASSERT_EQ(r.best_curve.size(), r.trial_ops_per_sec.size());
    // Every contender shares the same trial-0 baseline.
    EXPECT_EQ(r.trial_ops_per_sec[0], report.default_ops_per_sec);
    // The best-so-far curve is non-decreasing and ends at the best.
    for (size_t i = 1; i < r.best_curve.size(); i++) {
      EXPECT_GE(r.best_curve[i], r.best_curve[i - 1]) << r.name;
    }
    EXPECT_EQ(r.best_curve.back(), r.best_ops_per_sec) << r.name;
    EXPECT_GE(r.best_ops_per_sec, report.default_ops_per_sec) << r.name;
    EXPECT_FALSE(r.best_options_ini.empty()) << r.name;
  }

  // The winner is a real contender with the tournament-best throughput,
  // and its own curve reaches within 5% of itself.
  double best = 0;
  for (const auto& r : report.runs) best = std::max(best, r.best_ops_per_sec);
  bool winner_found = false;
  for (const auto& r : report.runs) {
    if (r.name == report.winner) {
      winner_found = true;
      EXPECT_EQ(r.best_ops_per_sec, best);
      EXPECT_GE(r.trials_to_within_5pct, 0);
      EXPECT_LE(r.trials_to_within_5pct, cfg.budget);
    }
  }
  EXPECT_TRUE(winner_found);
}

TEST(Tournament, ContenderSubsetIsRespected) {
  TournamentConfig cfg = TinyConfig();
  cfg.budget = 2;
  cfg.contenders = {"grid", "random"};
  TournamentReport report = RunTournament(cfg);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].name, "grid");
  EXPECT_EQ(report.runs[1].name, "random");
}

TEST(Tournament, SameSeedIsDeterministic) {
  TournamentConfig cfg = TinyConfig();
  cfg.budget = 2;
  TournamentReport a = RunTournament(cfg);
  TournamentReport b = RunTournament(cfg);
  EXPECT_EQ(a.ToJson(), b.ToJson());

  // A different seed changes the measurements (determinism is not
  // vacuous).
  cfg.seed = 43;
  TournamentReport c = RunTournament(cfg);
  EXPECT_NE(a.default_ops_per_sec, c.default_ops_per_sec);
}

TEST(Tournament, ReportSerializesWithMetadata) {
  TournamentConfig cfg = TinyConfig();
  cfg.budget = 1;
  cfg.contenders = {"grid"};
  TournamentReport report = RunTournament(cfg);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"kind\": \"bench_tournament\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"best_curve\""), std::string::npos);
  const std::string table = report.SummaryTable();
  EXPECT_NE(table.find("| grid"), std::string::npos);
  EXPECT_NE(table.find("**(winner)**"), std::string::npos);
}

TEST(Tournament, GridBudgetBeyondGridReproposesBest) {
  // 15 grid points + defaults; budget 20 exhausts the grid and the
  // tail must stay flat at the best observed throughput.
  TournamentConfig cfg = TinyConfig();
  cfg.budget = 20;
  cfg.contenders = {"grid"};
  TournamentReport report = RunTournament(cfg);
  ASSERT_EQ(report.runs.size(), 1u);
  const TunerRun& r = report.runs[0];
  ASSERT_EQ(r.trial_ops_per_sec.size(), 21u);
  EXPECT_EQ(r.best_curve.back(), r.best_ops_per_sec);
}

}  // namespace
}  // namespace elmo::tune
