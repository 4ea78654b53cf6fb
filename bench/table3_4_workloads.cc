// Tables 3 & 4: the four workloads (FR / RR / RRWR / Mixgraph) on
// 4 CPUs + 4 GiB + NVMe SSD — default vs ELMo-tuned throughput
// (Table 3) and p99 latency with write/read split (Table 4).
#include "bench/bench_common.h"

using namespace elmo;
using namespace elmo::benchmain;

int main() {
  const auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());

  struct Row {
    const char* label;
    bench::WorkloadSpec spec;
    TunedRun run;
  };
  std::vector<Row> rows = {
      {"FR", bench::WorkloadSpec::FillRandom(600000), {}},
      {"RR", bench::WorkloadSpec::ReadRandom(40000, 400000), {}},
      {"RRWR", bench::WorkloadSpec::ReadRandomWriteRandom(200000), {}},
      {"Mixgraph", bench::WorkloadSpec::Mixgraph(200000), {}},
  };

  uint64_t seed = 2000;
  for (auto& r : rows) {
    fprintf(stderr, "tuning %s on %s ...\n", r.label, hw.Label().c_str());
    r.run = RunCell(hw, r.spec, seed++);
  }

  // One "ours" row over the four workloads, each formatted by `cell`.
  auto ours = [&](const char* label, auto cell) {
    std::vector<std::string> row = {std::string("ours ") + label};
    for (const auto& r : rows) row.push_back(cell(r.run));
    return row;
  };

  PrintHeader(
      "Table 3: Varying Workloads with 4 CPUs & 4 GiB on NVMe SSD - "
      "Throughput (ops/sec)",
      "paper Table 3");
  PrintTable(
      {"Config", "FR", "RR", "RRWR", "Mixgraph"},
      {{"paper Default", "313,992", "1,928", "13,217", "17,928"},
       {"paper Tuned", "362,796", "5,178", "43,598", "23,488"},
       {"paper Gain", "1.16×", "2.69×", "3.30×", "1.31×"},
       ours("Default", [](auto& r) { return Num(r.baseline.ops_per_sec); }),
       ours("Tuned", [](auto& r) { return Num(r.tuned.ops_per_sec); }),
       ours("Gain", [](auto& r) {
         return Num(r.outcome.ThroughputGain(), 2) + "×";
       })});

  // FR issues only writes and RR only reads; RRWR and Mixgraph show both.
  auto p99_row = [&](const char* label, bool tuned) {
    auto res = [&](int i) -> const bench::BenchResult& {
      return tuned ? rows[i].run.tuned : rows[i].run.baseline;
    };
    auto both = [](const bench::BenchResult& b) {
      return Num(b.p99_write_us(), 2) + " / " + Num(b.p99_read_us(), 2);
    };
    return std::vector<std::string>{label, Num(res(0).p99_write_us(), 2),
                                    Num(res(1).p99_read_us(), 2),
                                    both(res(2)), both(res(3))};
  };
  PrintHeader(
      "Table 4: Varying Workloads with 4 CPUs & 4 GiB on NVMe SSD - p99 "
      "Latency (us)",
      "paper Table 4");
  PrintTable({"Config", "FR", "RR", "RRWR (w/r)", "Mixgraph (w/r)"},
             {{"paper Default", "5.82", "2697.55", "57.32 / 1463.61",
               "14.87 / 325.65"},
              {"paper Tuned", "5.03", "155.02", "28.21 / 169.10",
               "14.59 / 245.56"},
              p99_row("ours Default", false), p99_row("ours Tuned", true)});
  return 0;
}
