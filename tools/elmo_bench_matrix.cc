// elmo_bench_matrix: perf-trajectory regression harness CLI (see
// src/bench_kit/regression.h) plus the tuner tournament driver (see
// src/elmo/tournament.h). Deterministic under SimEnv: same seed, same
// tree => byte-identical metric blocks.
//
//   elmo_bench_matrix --quick --out=BENCH_matrix.json
//   elmo_bench_matrix --quick --baseline=BENCH_matrix.json
//       --diff_out=BENCH_diff.json            # CI regression gate
//   elmo_bench_matrix --current=new.json --baseline=old.json
//                                             # diff two files, no run
//   elmo_bench_matrix --tournament --budget=8
//       --tournament_out=BENCH_tournament.json
//   elmo_bench_matrix --online_vs_offline
//       --online_out=BENCH_online_vs_offline.json
//       --timeline_out=tuning_timeline.json
//
// Exit codes: 0 ok, 1 regression gate breach, 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_kit/regression.h"
#include "elmo/tournament.h"
#include "env/device_model.h"
#include "env/hardware_profile.h"

namespace {

void Usage() {
  fprintf(stderr,
          "usage: elmo_bench_matrix [flags]\n"
          "  --quick               PR-sized matrix (default)\n"
          "  --full                full matrix (adds HDD cells, 4x ops)\n"
          "  --seed=<n>            SimEnv seed (default 42)\n"
          "  --out=<path>          write the matrix JSON here\n"
          "                        (default BENCH_matrix.json)\n"
          "  --baseline=<path>     compare against this committed matrix;\n"
          "                        exit 1 on threshold breach\n"
          "  --current=<path>      diff this file instead of running the\n"
          "                        matrix (requires --baseline)\n"
          "  --diff_out=<path>     write the comparison JSON here\n"
          "  --max_tput_drop=<pct> throughput-drop gate (default 15)\n"
          "  --max_p99_rise=<pct>  p99-rise gate (default 25)\n"
          "  --max_p999_rise=<pct> p999-rise gate (default 40)\n"
          "  --span_dir=<dir>      export per-cell span artifacts there:\n"
          "                        <cell>.span.trace, <cell>.perfetto.json,\n"
          "                        <cell>.attribution.json (dir must exist)\n"
          "  --tournament          run the tuner tournament instead\n"
          "  --budget=<n>          trials per tuner (default 8)\n"
          "  --contenders=<a,b>    subset of llm,cost_model,grid,random\n"
          "  --tournament_out=<p>  write the tournament JSON here\n"
          "                        (default BENCH_tournament.json)\n"
          "  --online_vs_offline   run the online-vs-offline comparison\n"
          "                        on the phased workload instead\n"
          "  --no_llm              heuristic-only online proposals\n"
          "  --require_online_win  exit nonzero unless the online run\n"
          "                        beats the best static config\n"
          "  --online_out=<p>      write the comparison JSON here\n"
          "                        (default BENCH_online_vs_offline.json)\n"
          "  --timeline_out=<p>    also write the online run's tuning\n"
          "                        timeline JSON here\n");
}

bool ParseUint64Flag(const std::string& arg, const char* name,
                     uint64_t* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = strtoull(arg.c_str() + prefix.size(), nullptr, 10);
  return true;
}

bool ParseDoubleFlag(const std::string& arg, const char* name, double* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = strtod(arg.c_str() + prefix.size(), nullptr);
  return true;
}

bool ParseStringFlag(const std::string& arg, const char* name,
                     std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fwrite(text.data(), 1, text.size(), f);
  fputc('\n', f);
  fclose(f);
  return true;
}

// No trailing newline: span traces are CRC-framed binary and the
// reader treats stray tail bytes as corruption.
bool WriteFileBinary(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  fwrite(bytes.data(), 1, bytes.size(), f);
  fclose(f);
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n;
  out->clear();
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  fclose(f);
  return true;
}

int RunTournamentMode(uint64_t seed, int budget,
                      const std::string& contenders,
                      const std::string& out_path) {
  elmo::tune::TournamentConfig cfg;
  cfg.hw = elmo::HardwareProfile::Make(4, 4, elmo::DeviceModel::NvmeSsd());
  // The tuning target is the paper's hardest workload: Zipfian mixed
  // reads/writes. Trimmed op count keeps budget*4 trials CI-sized.
  cfg.workload = elmo::bench::WorkloadSpec::Mixgraph(120000);
  cfg.budget = budget;
  cfg.seed = seed;
  for (size_t pos = 0; pos < contenders.size();) {
    size_t comma = contenders.find(',', pos);
    if (comma == std::string::npos) comma = contenders.size();
    if (comma > pos) cfg.contenders.push_back(contenders.substr(pos, comma - pos));
    pos = comma + 1;
  }

  fprintf(stderr,
          "elmo_bench_matrix: tournament on %s, %s, budget %d/tuner\n",
          cfg.hw.Label().c_str(), cfg.workload.Describe().c_str(),
          cfg.budget);
  const elmo::tune::TournamentReport report =
      elmo::tune::RunTournament(cfg);
  fprintf(stderr, "%s", report.SummaryTable().c_str());
  if (!WriteFile(out_path, report.ToJson())) {
    fprintf(stderr, "elmo_bench_matrix: cannot write %s\n",
            out_path.c_str());
    return 2;
  }
  fprintf(stderr, "elmo_bench_matrix: wrote %s (winner: %s)\n",
          out_path.c_str(), report.winner.c_str());
  return 0;
}

int RunOnlineVsOfflineMode(uint64_t seed, bool use_llm, bool require_win,
                           const std::string& out_path,
                           const std::string& timeline_out) {
  elmo::tune::OnlineVsOfflineConfig cfg;
  cfg.hw = elmo::HardwareProfile::Make(4, 4, elmo::DeviceModel::NvmeSsd());
  cfg.seed = seed;
  cfg.use_llm = use_llm;

  fprintf(stderr,
          "elmo_bench_matrix: online-vs-offline on %s, %s (%s proposals)\n",
          cfg.hw.Label().c_str(), cfg.workload.Describe().c_str(),
          use_llm ? "llm" : "heuristic");
  const elmo::tune::OnlineVsOfflineReport report =
      elmo::tune::RunOnlineVsOffline(cfg);
  fprintf(stderr, "%s", report.SummaryTable().c_str());
  if (!WriteFile(out_path, report.ToJson())) {
    fprintf(stderr, "elmo_bench_matrix: cannot write %s\n", out_path.c_str());
    return 2;
  }
  if (!timeline_out.empty() &&
      !WriteFile(timeline_out, report.timeline_json)) {
    fprintf(stderr, "elmo_bench_matrix: cannot write %s\n",
            timeline_out.c_str());
    return 2;
  }
  fprintf(stderr,
          "elmo_bench_matrix: wrote %s (online %.2fx vs best static %s)\n",
          out_path.c_str(), report.online_gain_vs_best_static,
          report.best_static.c_str());
  if (require_win && report.online_gain_vs_best_static <= 1.0) {
    fprintf(stderr,
            "elmo_bench_matrix: FAIL — online tuning no longer beats the "
            "best static config\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = true;
  bool tournament = false;
  bool online_vs_offline = false;
  bool use_llm = true;
  bool require_online_win = false;
  uint64_t seed = 42;
  uint64_t budget = 8;
  std::string out_path = "BENCH_matrix.json";
  std::string tournament_out = "BENCH_tournament.json";
  std::string online_out = "BENCH_online_vs_offline.json";
  std::string timeline_out;
  std::string baseline_path;
  std::string current_path;
  std::string diff_out;
  std::string contenders;
  std::string span_dir;
  elmo::bench::RegressionThresholds thresholds;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    uint64_t u = 0;
    double d = 0;
    std::string s;
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--full") {
      quick = false;
    } else if (arg == "--tournament") {
      tournament = true;
    } else if (arg == "--online_vs_offline") {
      online_vs_offline = true;
    } else if (arg == "--no_llm") {
      use_llm = false;
    } else if (arg == "--require_online_win") {
      require_online_win = true;
    } else if (ParseStringFlag(arg, "online_out", &s)) {
      online_out = s;
    } else if (ParseStringFlag(arg, "timeline_out", &s)) {
      timeline_out = s;
    } else if (ParseUint64Flag(arg, "seed", &u)) {
      seed = u;
    } else if (ParseUint64Flag(arg, "budget", &u)) {
      budget = u;
    } else if (ParseStringFlag(arg, "out", &s)) {
      out_path = s;
    } else if (ParseStringFlag(arg, "tournament_out", &s)) {
      tournament_out = s;
    } else if (ParseStringFlag(arg, "baseline", &s)) {
      baseline_path = s;
    } else if (ParseStringFlag(arg, "current", &s)) {
      current_path = s;
    } else if (ParseStringFlag(arg, "diff_out", &s)) {
      diff_out = s;
    } else if (ParseStringFlag(arg, "contenders", &s)) {
      contenders = s;
    } else if (ParseStringFlag(arg, "span_dir", &s)) {
      span_dir = s;
    } else if (ParseDoubleFlag(arg, "max_tput_drop", &d)) {
      thresholds.max_throughput_drop_pct = d;
    } else if (ParseDoubleFlag(arg, "max_p99_rise", &d)) {
      thresholds.max_p99_rise_pct = d;
    } else if (ParseDoubleFlag(arg, "max_p999_rise", &d)) {
      thresholds.max_p999_rise_pct = d;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      fprintf(stderr, "elmo_bench_matrix: unknown flag %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (online_vs_offline) {
    return RunOnlineVsOfflineMode(seed, use_llm, require_online_win,
                                  online_out, timeline_out);
  }
  if (tournament) {
    return RunTournamentMode(seed, static_cast<int>(budget), contenders,
                             tournament_out);
  }

  const std::string mode = quick ? "quick" : "full";
  elmo::bench::MatrixReport current;
  if (!current_path.empty()) {
    if (baseline_path.empty()) {
      fprintf(stderr, "elmo_bench_matrix: --current requires --baseline\n");
      return 2;
    }
    std::string text;
    if (!ReadFile(current_path, &text)) {
      fprintf(stderr, "elmo_bench_matrix: cannot read %s\n",
              current_path.c_str());
      return 2;
    }
    elmo::Status s = elmo::bench::MatrixReport::FromJson(text, &current);
    if (!s.ok()) {
      fprintf(stderr, "elmo_bench_matrix: bad matrix file %s: %s\n",
              current_path.c_str(), s.ToString().c_str());
      return 2;
    }
  } else {
    const auto cells = elmo::bench::DefaultMatrix(quick);
    fprintf(stderr, "elmo_bench_matrix: running %zu-cell %s matrix, seed %llu\n",
            cells.size(), mode.c_str(),
            static_cast<unsigned long long>(seed));
    current = elmo::bench::RunMatrix(
        cells, seed, mode,
        [](const elmo::bench::MatrixCell& cell,
           const elmo::bench::MetricMap& m) {
          auto it = m.find("ops_per_sec");
          fprintf(stderr, "  %-32s %12.0f ops/sec\n", cell.name.c_str(),
                  it == m.end() ? 0.0 : it->second);
        },
        [&span_dir](const elmo::bench::MatrixCell& cell,
                    const elmo::bench::BenchResult& result,
                    const std::string& span_trace) {
          if (span_dir.empty()) return;
          // Cell names contain '/' ("nvme_4c4g/fillrandom"); flatten so
          // each artifact is one file in span_dir.
          std::string stem = cell.name;
          for (char& c : stem) {
            if (c == '/') c = '_';
          }
          stem = span_dir + "/" + stem;
          if (!span_trace.empty() &&
              WriteFileBinary(stem + ".span.trace", span_trace)) {
            std::string perfetto;
            if (elmo::bench::ExportChromeTrace(elmo::Env::Posix(),
                                               stem + ".span.trace",
                                               &perfetto)
                    .ok()) {
              WriteFile(stem + ".perfetto.json", perfetto);
            }
          }
          if (result.span_attribution) {
            WriteFile(stem + ".attribution.json",
                      elmo::json::Value(result.span_attribution->ToJson())
                          .Dump());
          }
        });
    if (!WriteFile(out_path, current.ToJson())) {
      fprintf(stderr, "elmo_bench_matrix: cannot write %s\n",
              out_path.c_str());
      return 2;
    }
    fprintf(stderr, "elmo_bench_matrix: wrote %s\n", out_path.c_str());
  }

  if (baseline_path.empty()) return 0;

  std::string baseline_text;
  if (!ReadFile(baseline_path, &baseline_text)) {
    fprintf(stderr, "elmo_bench_matrix: cannot read baseline %s\n",
            baseline_path.c_str());
    return 2;
  }
  elmo::bench::MatrixReport baseline;
  elmo::Status s =
      elmo::bench::MatrixReport::FromJson(baseline_text, &baseline);
  if (!s.ok()) {
    fprintf(stderr, "elmo_bench_matrix: bad baseline %s: %s\n",
            baseline_path.c_str(), s.ToString().c_str());
    return 2;
  }

  const elmo::bench::CompareReport diff =
      elmo::bench::CompareMatrix(baseline, current, thresholds);
  printf("%s", diff.ToText().c_str());
  if (!diff_out.empty() && !WriteFile(diff_out, diff.ToJson())) {
    fprintf(stderr, "elmo_bench_matrix: cannot write %s\n", diff_out.c_str());
    return 2;
  }
  return diff.HasBreach() ? 1 : 0;
}
