// Shared driver for Figures 3 and 4: per-iteration throughput and p99
// series for three workloads on one device. Iteration 0 is the default
// configuration; iterations 1-7 plot the configuration the LLM proposed
// that round (kept or not), matching the paper's per-iteration bars.
#pragma once

#include "bench/bench_common.h"

namespace elmo::benchmain {

inline void RunIterationFigure(const char* figure_name,
                               const DeviceModel& device,
                               const char* paper_ref) {
  const auto hw = HardwareProfile::Make(2, 4, device);

  struct Series {
    const char* label;
    bench::WorkloadSpec spec;
    tune::TuningOutcome outcome;
  };
  std::vector<Series> series = {
      {"Fillrandom", bench::WorkloadSpec::FillRandom(400000), {}},
      {"Mixgraph", bench::WorkloadSpec::Mixgraph(150000), {}},
      {"RRWR", bench::WorkloadSpec::ReadRandomWriteRandom(150000), {}},
  };
  // The paper discards readrandom on HDD (<10 ops/sec, times out);
  // Figure 3/4 plot only these three workloads.

  uint64_t seed = 3000 + (device.name == "SATA HDD" ? 0 : 500);
  for (auto& s : series) {
    fprintf(stderr, "figure series %s on %s ...\n", s.label,
            hw.Label().c_str());
    s.outcome = RunCell(hw, s.spec, seed++).outcome;
  }

  // One row per series: iteration 0 (the default configuration), then
  // each round's candidate, "-" past the session's last iteration.
  // `reads_only` leaves out a series that issued no reads (Fillrandom).
  auto print_table = [&](const std::string& title, int precision,
                         bool reads_only, auto get) {
    PrintHeader(title, paper_ref);
    std::vector<std::vector<std::string>> rows;
    for (const auto& s : series) {
      if (reads_only && s.outcome.baseline.read_micros.Count() == 0) {
        continue;
      }
      std::vector<std::string> row = {s.label,
                                      Num(get(s.outcome.baseline), precision)};
      for (int it = 1; it <= 7; it++) {
        row.push_back(it <= static_cast<int>(s.outcome.iterations.size())
                          ? Num(get(s.outcome.iterations[it - 1].result),
                                precision)
                          : "-");
      }
      rows.push_back(std::move(row));
    }
    PrintTable({"series", "0", "1", "2", "3", "4", "5", "6", "7"}, rows);
  };
  const std::string figure(figure_name);
  print_table(figure + " (a): Throughput (ops/sec), " + device.name +
                  ", 2 CPUs + 4 GiB",
              0, false,
              [](const bench::BenchResult& r) { return r.ops_per_sec; });
  print_table(figure + " (b): P99 Latency (Write, us)", 2, false,
              [](const bench::BenchResult& r) { return r.p99_write_us(); });
  print_table(figure + " (c): P99 Latency (Read, us)", 2, true,
              [](const bench::BenchResult& r) { return r.p99_read_us(); });

  PrintHeader(figure + " (d): Throughput over time (engine sampler)",
              paper_ref);
  for (const auto& s : series) {
    printf("%s, default configuration:\n%s", s.label,
           bench::TimeSeriesTable(s.outcome.baseline.timeseries, 10).c_str());
    printf("%s, best tuned configuration:\n%s\n", s.label,
           bench::TimeSeriesTable(s.outcome.best_result.timeseries, 10)
               .c_str());
  }

  // Summary line: the paper's headline claims.
  printf("\nSummary (best vs default):\n");
  for (const auto& s : series) {
    printf("  %-12s throughput %.2fx", s.label,
           s.outcome.ThroughputGain());
    double base_p99 = std::max(s.outcome.baseline.p99_write_us(),
                               s.outcome.baseline.p99_read_us());
    double best_p99 = std::max(s.outcome.best_result.p99_write_us(),
                               s.outcome.best_result.p99_read_us());
    if (best_p99 > 0) {
      printf(", worst p99 %.2fx better", base_p99 / best_p99);
    }
    printf("\n");
  }
}

}  // namespace elmo::benchmain
