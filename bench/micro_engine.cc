// Engine micro-benchmarks (google-benchmark): the building blocks the
// paper's substrate rests on. Not a paper table — these exist so
// engine-level regressions are visible independently of the tuning
// loop.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "bench_kit/bench_runner.h"
#include "bench_kit/io_analyzer.h"
#include "elmo/online_tuner.h"
#include "llm/expert_llm.h"
#include "stress_kit/stress_driver.h"
#include "env/device_model.h"
#include "env/hardware_profile.h"
#include "env/io_tracing_env.h"
#include "env/mem_env.h"
#include "env/sim_env.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/memtable.h"
#include "table/bloom.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/cache.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"

namespace {

using namespace elmo;
using namespace elmo::lsm;

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_VarintEncode(benchmark::State& state) {
  char buf[10];
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeVarint64(buf, v));
    v = v * 2862933555777941757ull + 3037000493ull;
  }
}
BENCHMARK(BM_VarintEncode);

void BM_MemTableAdd(benchmark::State& state) {
  InternalKeyComparator icmp(BytewiseComparator());
  auto mem = std::make_unique<MemTable>(icmp);
  Random64 rng(42);
  uint64_t seq = 1;
  std::string value(100, 'v');
  for (auto _ : state) {
    char key[16];
    EncodeFixed64(key, rng.Next());
    EncodeFixed64(key + 8, rng.Next());
    mem->Add(seq++, kTypeValue, Slice(key, 16), value);
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      mem = std::make_unique<MemTable>(icmp);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MemTableAdd);

void BM_MemTableGet(benchmark::State& state) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable mem(icmp);
  std::string value(100, 'v');
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    char key[16];
    snprintf(key, sizeof(key), "%015d", i);
    mem.Add(i + 1, kTypeValue, Slice(key, 16), value);
  }
  Random64 rng(42);
  std::string out;
  for (auto _ : state) {
    char key[16];
    snprintf(key, sizeof(key), "%015d", (int)rng.Uniform(n));
    LookupKey lk(Slice(key, 16), n + 1);
    Status s;
    benchmark::DoNotOptimize(mem.Get(lk, &out, &s));
  }
}
BENCHMARK(BM_MemTableGet);

void BM_BloomCreateAndQuery(benchmark::State& state) {
  BloomFilterPolicy policy(static_cast<int>(state.range(0)));
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 10000; i++) {
    key_storage.push_back("key" + std::to_string(i));
  }
  for (const auto& k : key_storage) keys.emplace_back(k);
  std::string filter;
  policy.CreateFilter(keys.data(), (int)keys.size(), &filter);
  Random64 rng(42);
  for (auto _ : state) {
    std::string probe = "key" + std::to_string(rng.Uniform(20000));
    benchmark::DoNotOptimize(policy.KeyMayMatch(probe, filter));
  }
}
BENCHMARK(BM_BloomCreateAndQuery)->Arg(10)->Arg(16);

void BM_BlockBuildAndSeek(benchmark::State& state) {
  BlockBuilder builder(16);
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "%015d", i);
    builder.Add(Slice(key, 16), "value-payload-100b");
  }
  Block block(builder.Finish().ToString());
  Random64 rng(42);
  for (auto _ : state) {
    auto iter = block.NewIterator(BytewiseComparator());
    char key[16];
    snprintf(key, sizeof(key), "%015d", (int)rng.Uniform(1000));
    iter->Seek(Slice(key, 16));
    benchmark::DoNotOptimize(iter->Valid());
  }
}
BENCHMARK(BM_BlockBuildAndSeek);

void BM_LruCache(benchmark::State& state) {
  auto cache = NewLruCache(1 << 20);
  Random64 rng(42);
  for (auto _ : state) {
    char key[8];
    EncodeFixed64(key, rng.Uniform(10000));
    Slice k(key, 8);
    auto v = cache->Lookup(k);
    if (v == nullptr) {
      cache->Insert(k, std::make_shared<int>(7), 256);
    }
  }
}
BENCHMARK(BM_LruCache);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Random64 rng(42);
  for (auto _ : state) {
    h.Add(static_cast<double>(rng.Uniform(100000)));
  }
  benchmark::DoNotOptimize(h.Percentile(99.0));
}
BENCHMARK(BM_HistogramAdd);

void BM_DbPut(benchmark::State& state) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.write_buffer_size = 8 << 20;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/bm", &db);
  if (!s.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  Random64 rng(42);
  std::string value(100, 'v');
  for (auto _ : state) {
    char key[16];
    EncodeFixed64(key, rng.Next());
    EncodeFixed64(key + 8, rng.Next());
    Status ps = db->Put({}, Slice(key, 16), value);
    if (!ps.ok()) {
      state.SkipWithError("put failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbPut);

void BM_DbGet(benchmark::State& state) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.write_buffer_size = 4 << 20;
  options.bloom_filter_bits_per_key = static_cast<int>(state.range(0));
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/bm", &db);
  if (!s.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const int n = 200000;
  std::string value(100, 'v');
  for (int i = 0; i < n; i++) {
    char key[16];
    snprintf(key, sizeof(key), "%015d", i);
    db->Put({}, Slice(key, 16), value);
  }
  db->WaitForBackgroundWork();
  Random64 rng(42);
  std::string out;
  for (auto _ : state) {
    char key[16];
    snprintf(key, sizeof(key), "%015d", (int)rng.Uniform(n));
    benchmark::DoNotOptimize(db->Get({}, Slice(key, 16), &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGet)->Arg(0)->Arg(10);

// The IO trace's two halves on a MemEnv: N traced WAL appends through
// IOTracingEnv (one record each), then AnalyzeIOTrace over the file.
// Reports ns per record for each half.
void BM_IOTraceRoundTrip(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int64_t n = state.range(0);
  MemEnv base;
  IOTracingEnv env(&base);
  const std::string data(100, 'x');
  Clock::duration emit{}, analyze{};
  for (auto _ : state) {
    const auto t0 = Clock::now();
    std::unique_ptr<WritableFile> wal;
    Status s = env.NewWritableFile("/bm/000005.log", &wal);
    if (s.ok()) s = env.trace()->Start("/bm/io.trace", 0);
    for (int64_t i = 0; s.ok() && i < n; i++) s = wal->Append(data);
    if (s.ok()) s = env.trace()->Stop(nullptr);
    const auto t1 = Clock::now();
    bench::IOAnalysis analysis;
    if (s.ok()) {
      s = bench::AnalyzeIOTrace(&base, "/bm/io.trace", 20, &analysis);
    }
    const auto t2 = Clock::now();
    if (!s.ok() || analysis.records != static_cast<uint64_t>(n)) {
      state.SkipWithError("io trace round trip failed");
      return;
    }
    emit += t1 - t0;
    analyze += t2 - t1;
  }
  const double records = static_cast<double>(state.iterations() * n);
  auto ns = [](Clock::duration d) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  state.counters["emit_ns_per_record"] = ns(emit) / records;
  state.counters["analyze_ns_per_record"] = ns(analyze) / records;
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IOTraceRoundTrip)->Arg(20000);

}  // namespace

// Write a JSON benchmark report (headline numbers + the engine's
// sampled time series) of a small SimEnv fillrandom smoke run. CI
// uploads this file as a workflow artifact.
static int WriteSmokeReport(const std::string& path) {
  const auto hw =
      elmo::HardwareProfile::Make(2, 4, elmo::DeviceModel::NvmeSsd());
  elmo::bench::BenchRunner runner(hw, /*seed=*/42);
  elmo::bench::WorkloadSpec spec =
      elmo::bench::WorkloadSpec::FillRandom(60000);
  elmo::lsm::Options opts;
  const elmo::bench::BenchResult result = runner.Run(spec, opts);

  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "micro_engine: cannot write %s\n", path.c_str());
    return 1;
  }
  const std::string json = result.ToJson();
  fwrite(json.data(), 1, json.size(), f);
  fputc('\n', f);
  fclose(f);
  fprintf(stderr, "micro_engine: smoke report (%zu samples) -> %s\n",
          result.timeseries.size(), path.c_str());
  return result.timeseries.empty() ? 1 : 0;
}

// Materialize a small real on-disk DB (SSTs, MANIFEST, LOG, plus IO
// and block-cache traces) at `dir` for elmo_dump to inspect. CI drives
// the inspection CLI over exactly this output.
static int WriteDumpableDb(const std::string& dir) {
  elmo::lsm::Options opts;
  opts.env = elmo::Env::Posix();
  opts.create_if_missing = true;
  opts.write_buffer_size = 64 << 10;  // several flush-sized SSTs
  opts.block_cache_size = 256 << 10;
  opts.bloom_filter_bits_per_key = 10;
  // Sample fast and export metrics so the dump carries live-monitor
  // artifacts too: full sampler_tick events in the LOG (elmo_dump
  // health / elmo_top replay them) and a Prometheus snapshot on close.
  opts.stats_sample_interval_ms = 5;
  opts.metrics_export_path = dir + "/metrics.prom";

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, dir, &db);
  if (!s.ok()) {
    fprintf(stderr, "micro_engine: open %s: %s\n", dir.c_str(),
            s.ToString().c_str());
    return 1;
  }
  // Capture everything, so the slow-op log has both the tail and a
  // sampled baseline for elmo_dump span-analyze to attribute.
  elmo::lsm::SpanTraceOptions span_opts;
  span_opts.slow_op_threshold_us = 0;
  span_opts.sample_every = 1;
  if (!db->StartIOTrace(dir + "/io.trace").ok() ||
      !db->StartBlockCacheTrace(dir + "/cache.trace").ok() ||
      !db->StartSpanTrace(dir + "/span.trace", span_opts).ok()) {
    fprintf(stderr, "micro_engine: trace start failed\n");
    return 1;
  }

  // Pause between phases: the real-env sampler thread runs on wall
  // time, and each pause spans a few 5ms intervals, so the LOG records
  // sampler ticks for the write, flush and read phases.
  const std::string value(256, 'v');
  for (int i = 0; i < 3000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i * 7919 % 1000);
    if (!db->Put({}, key, value).ok()) return 1;
    if (i % 1000 == 999) opts.env->SleepForMicroseconds(12000);
  }
  db->FlushMemTable();
  opts.env->SleepForMicroseconds(12000);
  // A live SetOptions batch between the write and read phases, so the
  // LOG carries an options_change event for elmo_top's pane and the
  // OPTIONS file records the post-change state.
  if (!db->SetOptions({{"write_buffer_size", "131072"},
                       {"max_background_jobs", "3"}})
           .ok()) {
    fprintf(stderr, "micro_engine: SetOptions failed\n");
    return 1;
  }
  std::string out;
  for (int i = 0; i < 1000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    db->Get({}, key, &out);
    if (i % 500 == 499) opts.env->SleepForMicroseconds(12000);
  }

  if (!db->EndIOTrace().ok() || !db->EndBlockCacheTrace().ok() ||
      !db->EndSpanTrace().ok()) {
    fprintf(stderr, "micro_engine: trace end failed\n");
    return 1;
  }
  db.reset();
  fprintf(stderr, "micro_engine: dumpable db -> %s\n", dir.c_str());
  return 0;
}

// Run the flagship smoke workload shape under FaultInjectionEnv: one
// short randomized segment, one crash/reopen cycle, full oracle
// verification. A cheap crash-safety canary next to the perf canaries.
static int RunFaultSmoke(uint64_t seed) {
  elmo::stress::StressConfig cfg;
  cfg.seed = seed;
  cfg.ops = 3000;
  cfg.crash_cycles = 1;
  cfg.num_keys = 256;
  cfg.db_path = "/fault_smoke";
  const elmo::stress::StressReport report = elmo::stress::RunStress(cfg);
  if (!report.ok) {
    fprintf(stderr, "micro_engine: fault smoke FAILED: %s\n",
            report.first_divergence.c_str());
    return 1;
  }
  fprintf(stderr,
          "micro_engine: fault smoke ok (seed=%llu, %llu ops, "
          "%llu kill-point fires)\n",
          static_cast<unsigned long long>(seed),
          static_cast<unsigned long long>(report.ops_executed),
          static_cast<unsigned long long>(report.kill_point_fires));
  return 0;
}

// Run the phased SimEnv workload with a live OnlineTuner on the bench
// hook (simulated LLM, fixed seed) and write the tuning timeline JSON
// to `path`. Fails unless the session applied at least one delta and
// never re-proposed a rolled-back one — the rollback-loop oscillation
// smell CI guards against.
static int RunOnlineTuningSmoke(const std::string& path) {
  const auto hw =
      elmo::HardwareProfile::Make(4, 4, elmo::DeviceModel::NvmeSsd());
  elmo::bench::BenchRunner runner(hw, /*seed=*/42);

  elmo::llm::ExpertConfig ecfg;
  ecfg.seed = 42;
  elmo::llm::SimulatedExpertLlm expert(ecfg);

  elmo::tune::OnlineTunerConfig cfg;
  cfg.memory_budget_bytes =
      (hw.memory_bytes - elmo::SimEnv::kOsBaselineBytes) /
      elmo::bench::kCapacityScale;

  std::unique_ptr<elmo::tune::OnlineTuner> tuner;
  elmo::lsm::DB* tuner_db = nullptr;
  auto hook = [&](elmo::lsm::DB* db, uint64_t) {
    if (db != tuner_db) {
      tuner_db = db;
      tuner = std::make_unique<elmo::tune::OnlineTuner>(db, &expert, cfg);
    }
    tuner->Poll();
  };
  const elmo::bench::BenchResult result = runner.RunWithHook(
      elmo::bench::WorkloadSpec::Phased(), elmo::lsm::Options(), hook);

  if (tuner == nullptr) {
    fprintf(stderr, "micro_engine: tuning smoke never saw the DB\n");
    return 1;
  }
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "micro_engine: cannot write %s\n", path.c_str());
    return 1;
  }
  const std::string json = tuner->TimelineJson();
  fwrite(json.data(), 1, json.size(), f);
  fputc('\n', f);
  fclose(f);
  fprintf(stderr,
          "micro_engine: tuning smoke %.0f ops/s, %d delta(s) applied, "
          "%d rollback(s), %d oscillation(s) -> %s\n",
          result.ops_per_sec, tuner->applied_deltas(), tuner->rollbacks(),
          tuner->oscillations(), path.c_str());
  if (tuner->applied_deltas() < 1) {
    fprintf(stderr, "micro_engine: tuning smoke FAILED: no delta applied\n");
    return 1;
  }
  if (tuner->oscillations() != 0) {
    fprintf(stderr,
            "micro_engine: tuning smoke FAILED: rollback-loop oscillation\n");
    return 1;
  }
  return 0;
}

// BENCHMARK_MAIN plus --elmo_smoke_json=<path> / --elmo_dump_db=<dir> /
// --fault_seed=<n> / --elmo_online_tuning_json=<path> flags (consumed
// before google-benchmark sees the argument list).
int main(int argc, char** argv) {
  std::string smoke_path;
  std::string dump_db_dir;
  std::string fault_seed;
  std::string tuning_path;
  int out_argc = 1;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const std::string smoke_prefix = "--elmo_smoke_json=";
    const std::string dump_prefix = "--elmo_dump_db=";
    const std::string fault_prefix = "--fault_seed=";
    const std::string tuning_prefix = "--elmo_online_tuning_json=";
    if (arg.rfind(smoke_prefix, 0) == 0) {
      smoke_path = arg.substr(smoke_prefix.size());
    } else if (arg.rfind(dump_prefix, 0) == 0) {
      dump_db_dir = arg.substr(dump_prefix.size());
    } else if (arg.rfind(fault_prefix, 0) == 0) {
      fault_seed = arg.substr(fault_prefix.size());
    } else if (arg.rfind(tuning_prefix, 0) == 0) {
      tuning_path = arg.substr(tuning_prefix.size());
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!fault_seed.empty()) {
    int rc = RunFaultSmoke(elmo::stress::StressSeedFromString(fault_seed));
    if (rc != 0) return rc;
  }
  if (!dump_db_dir.empty()) {
    int rc = WriteDumpableDb(dump_db_dir);
    if (rc != 0) return rc;
  }
  if (!tuning_path.empty()) {
    int rc = RunOnlineTuningSmoke(tuning_path);
    if (rc != 0) return rc;
  }
  if (!smoke_path.empty()) return WriteSmokeReport(smoke_path);
  return 0;
}
