// Tables 1 & 2: fillrandom on NVMe SSD across the hardware matrix
// {2,4} CPUs x {4,8} GiB — default vs ELMo-tuned throughput (Table 1)
// and p99 latency (Table 2).
#include "bench/bench_common.h"

using namespace elmo;
using namespace elmo::benchmain;

int main() {
  struct Cell {
    int cores;
    int mem_gib;
    TunedRun run;
  };
  std::vector<Cell> cells = {
      {2, 4, {}}, {2, 8, {}}, {4, 4, {}}, {4, 8, {}}};

  const auto spec = bench::WorkloadSpec::FillRandom(600000);
  for (auto& c : cells) {
    auto hw = HardwareProfile::Make(c.cores, c.mem_gib,
                                    DeviceModel::NvmeSsd());
    fprintf(stderr, "tuning fillrandom on %s ...\n", hw.Label().c_str());
    c.run = RunCell(hw, spec, /*seed=*/1000 + c.cores * 10 + c.mem_gib);
  }

  // One "ours" row over the four cells, each formatted by `cell`.
  auto ours = [&](const char* label, auto cell) {
    std::vector<std::string> row = {std::string("ours ") + label};
    for (const auto& c : cells) row.push_back(cell(c.run));
    return row;
  };
  const std::vector<std::string> header = {"Config", "2+4", "2+8", "4+4",
                                           "4+8"};

  PrintHeader(
      "Table 1: Varying Hardware for Fillrandom on NVMe SSD - "
      "Throughput (ops/sec)",
      "paper Table 1");
  PrintTable(
      header,
      {{"paper Default", "320,377", "301,677", "313,992", "310,574"},
       {"paper Tuned", "362,460", "348,237", "362,796", "329,252"},
       ours("Default", [](auto& r) { return Num(r.baseline.ops_per_sec); }),
       ours("Tuned", [](auto& r) { return Num(r.tuned.ops_per_sec); }),
       ours("Gain", [](auto& r) {
         return Num((r.outcome.ThroughputGain() - 1) * 100, 1) + "%";
       })});

  PrintHeader(
      "Table 2: Varying Hardware for Fillrandom on NVMe SSD - p99 "
      "Latency (us)",
      "paper Table 2");
  PrintTable(
      header,
      {{"paper Default", "5.73", "5.92", "5.82", "5.88"},
       {"paper Tuned", "5.01", "5.42", "5.03", "5.62"},
       ours("Default",
            [](auto& r) { return Num(r.baseline.p99_write_us(), 2); }),
       ours("Tuned", [](auto& r) { return Num(r.tuned.p99_write_us(), 2); })});
  return 0;
}
