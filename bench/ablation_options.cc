// Ablation bench: one-factor-at-a-time impact of the options the
// DESIGN calls out as load-bearing, on both device classes. This is
// the ground truth the LLM's suggestions are competing against — it
// shows *why* the tuned configurations in Tables 1-4 win.
#include "bench/bench_common.h"

using namespace elmo;
using namespace elmo::benchmain;

namespace {

struct Variant {
  const char* name;
  lsm::Options opts;
  bool write_side;  // evaluate on fillrandom (else mixed workload)
};

std::vector<Variant> MakeVariants() {
  std::vector<Variant> variants;
  // One variant: the default options with `tweak` applied.
  auto add = [&variants](const char* name, bool write_side, auto tweak) {
    lsm::Options o;
    tweak(o);
    variants.push_back({name, o, write_side});
  };
  using O = lsm::Options;
  add("default", true, [](O&) {});
  add("+bytes_per_sync=1M", true, [](O& o) {
    o.wal_bytes_per_sync = 1 << 20;
    o.bytes_per_sync = 1 << 20;
  });
  add("+background_jobs=6", true, [](O& o) { o.max_background_jobs = 6; });
  add("+bigger_memtables", true, [](O& o) {
    o.write_buffer_size = 128ull << 20;
    o.max_write_buffer_number = 4;
  });
  add("+readahead=4M", true,
      [](O& o) { o.compaction_readahead_size = 4 << 20; });
  add("-pipelined_write", true,
      [](O& o) { o.enable_pipelined_write = false; });
  add("+bloom=10bits", false, [](O& o) { o.bloom_filter_bits_per_key = 10; });
  add("+cache=1G", false, [](O& o) { o.block_cache_size = 1ull << 30; });
  add("universal_compaction", true, [](O& o) {
    o.compaction_style = lsm::CompactionStyle::kUniversal;
  });
  add("+dynamic_levels", true,
      [](O& o) { o.level_compaction_dynamic_level_bytes = true; });
  return variants;
}

}  // namespace

int main() {
  PrintHeader("Ablation: single-option impact vs default",
              "DESIGN.md §4 design-choice ablations (not a paper table)");

  const auto write_spec = bench::WorkloadSpec::FillRandom(300000);
  const auto mixed_spec = bench::WorkloadSpec::Mixgraph(100000);

  for (const auto& dev :
       {DeviceModel::NvmeSsd(), DeviceModel::SataHdd()}) {
    printf("\n--- %s (2 CPUs + 4 GiB) ---\n", dev.name.c_str());
    printf("%-24s | %-10s | %10s | %9s | %9s | %8s\n", "variant",
           "workload", "ops/sec", "p99w(us)", "p99r(us)", "vs def");
    auto hw = HardwareProfile::Make(2, 4, dev);
    bench::BenchRunner runner(hw);

    uint64_t errors = 0;
    auto run = [&](const bench::WorkloadSpec& spec,
                   const lsm::Options& opts) {
      bench::BenchResult r = runner.Run(spec, opts);
      errors += r.errors();
      return r;
    };
    lsm::Options def;
    const double def_write_tput = run(write_spec, def).ops_per_sec;
    const double def_mixed_tput = run(mixed_spec, def).ops_per_sec;

    for (const auto& v : MakeVariants()) {
      const auto& spec = v.write_side ? write_spec : mixed_spec;
      auto r = run(spec, v.opts);
      const double base = v.write_side ? def_write_tput : def_mixed_tput;
      printf("%-24s | %-10s | %10.0f | %9.2f | %9.2f | %7.2fx\n", v.name,
             r.workload.c_str(), r.ops_per_sec, r.p99_write_us(),
             r.p99_read_us(), base > 0 ? r.ops_per_sec / base : 0.0);
    }
    ReportErrors("ablation on " + hw.Label(), errors);
  }
  return 0;
}
