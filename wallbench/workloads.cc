#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "bench_kit/bench_runner.h"
#include "elmo/tuning_session.h"
#include "layer_probe.h"
#include "llm/expert_llm.h"
#include "lsm/options_schema.h"
#include "util/random.h"

namespace wallbench {
namespace {

using elmo::Status;
using elmo::lsm::DB;
using elmo::lsm::Options;
using elmo::lsm::Ticker;

// Share of --seconds each phase of a traced run gets.
constexpr double kTracedPhase = 0.4;

// fill: 300k random keys (35 MB of user data, ~35 memtables of 1 MiB)
// per round, so every round runs ~20+ compactions.
constexpr uint64_t kFillKeys = 300000;
constexpr uint64_t kFillWarmKeys = 100000;
constexpr uint64_t kFillReadback = 20000;
// tune: Mixgraph session on a fixed profile and seed, so tune_gain is
// the same on every run.
constexpr uint64_t kTuneOps = 30000;
constexpr uint64_t kTuneSeed = 42;
// Keys each engine check loads and reads back on the real engine.
constexpr uint64_t kCheckKeys = 100000;

double Secs(int64_t ns) { return static_cast<double>(ns) / 1e9; }

Options FillOptions() {
  Options o;
  o.write_buffer_size = 1 << 20;
  o.max_bytes_for_level_base = 4 << 20;
  o.target_file_size_base = 1 << 20;
  o.bloom_filter_bits_per_key = 10;
  o.stats_dump_period_sec = 0;
  return o;
}

std::string U64(uint64_t v) { return std::to_string(v); }

std::string DoubleList(const std::vector<double>& v) {
  std::string s = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

// Counters the engine keeps about itself, read through DB::stats().
struct EngineCounts {
  double flushes = 0, compactions = 0, compaction_mib = 0, stall_us = 0,
         stops = 0;

  static EngineCounts Of(DB* db) {
    const auto& st = db->stats();
    EngineCounts c;
    c.flushes = st.Get(Ticker::kFlushCount);
    c.compactions = st.Get(Ticker::kCompactionCount);
    c.compaction_mib = st.Get(Ticker::kCompactionBytesWritten) / 1048576.0;
    c.stall_us = st.Get(Ticker::kWriteStallMicros);
    c.stops = st.Get(Ticker::kWriteStopCount);
    return c;
  }
  void AddTo(RunResult* out, double scale = 1) const {
    out->Add("lsm.flush_count", flushes * scale, "count");
    out->Add("lsm.compaction_count", compactions * scale, "count");
    out->Add("lsm.compaction_bytes_written", compaction_mib * scale, "MiB");
    out->Add("lsm.stall_us", stall_us * scale, "us");
    out->Add("lsm.stop_count", stops * scale, "count");
  }
};

double CacheHitRate(DB* db) {
  std::string v;
  return db->GetProperty("elmo.block-cache-hit-rate", &v) ? std::atof(v.c_str())
                                                          : 0;
}

// Span-derived per-layer figures, over the spans of the traced phase.
void AddSpanMetrics(RunResult* out) {
  auto mean = [](SpanName n, bool self) {
    const SpanTotals t = TotalsFor(n);
    return t.count == 0 ? 0.0
                        : static_cast<double>(self ? t.self_ns : t.total_ns) /
                              static_cast<double>(t.count);
  };
  out->Add("span.put_self_ns", mean(SpanName::kDbPut, true), "ns");
  out->Add("span.get_self_ns", mean(SpanName::kDbGet, true), "ns");
  out->Add("span.wal_append_ns", mean(SpanName::kEnvWalWrite, false), "ns");
  out->Add("span.sst_append_ns", mean(SpanName::kEnvSstWrite, false), "ns");
  out->Add("span.sst_read_ns", mean(SpanName::kEnvSstRead, false), "ns");
  out->Add("span.count", static_cast<double>(SpansRecorded()), "count");
}

void AddOverhead(RunResult* out, double untraced, double traced) {
  out->Add("trace.overhead_pct",
           untraced > 0 ? (untraced - traced) / untraced * 100 : 0, "%");
}

// Env-boundary amplification over one interval of a store's life.
struct EnvDelta {
  KindCounts wal0, sst0, get0;
  void Start(CountingEnv* env) {
    wal0 = env->Counts(FileKind::kWal);
    sst0 = env->Counts(FileKind::kSst);
    get0 = env->GetPathSstCounts();
  }
  void AddTo(CountingEnv* env, double user_bytes, double gets,
             RunResult* out) const {
    const KindCounts wal = env->Counts(FileKind::kWal);
    const KindCounts sst = env->Counts(FileKind::kSst);
    const KindCounts get = env->GetPathSstCounts();
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out->Add("env.wal_bytes_per_user_byte",
             per(wal.write_bytes - wal0.write_bytes, user_bytes), "ratio");
    out->Add("env.sst_write_bytes_per_user_byte",
             per(sst.write_bytes - sst0.write_bytes, user_bytes), "ratio");
    out->Add("env.sst_reads_per_get", per(get.reads - get0.reads, gets),
             "count");
    out->Add("env.sst_read_bytes_per_get",
             per(get.read_bytes - get0.read_bytes, gets), "B");
  }
};

// Per-layer metrics of layers a workload does not exercise are reported
// as 0.
void AddUnusedTuneLayers(RunResult* out) {
  out->Add("llm.complete_ms", 0, "ms");
  out->Add("bench_kit.run_s", 0, "s");
  out->Add("bench_kit.wall_us_per_virtual_op", 0, "us");
  out->Add("elmo.self_share", 0, "ratio");
}

// One round of a workload: its rate, its amplification and the
// percentiles of its own Put and Get latencies. The end-to-end metrics
// are medians (means for the amplifications) over a run's rounds, so a
// slow spell of the machine moves a few rounds, not the whole sample.
struct Round {
  double ops_per_s = 0, write_amp = 0, space_amp = 0;
  double put_p50 = 0, put_p99 = 0, get_p50 = 0, get_p99 = 0;
  // fill only
  double drain_s = 0, put_wait_s = 0, cache_hit_rate = 0;
  EngineCounts engine;

  void TakeLatencies(const Latencies& puts, const Latencies& gets) {
    put_p50 = puts.PercentileUs(50);
    put_p99 = puts.PercentileUs(99);
    get_p50 = gets.PercentileUs(50);
    get_p99 = gets.PercentileUs(99);
  }
};

template <typename F>
std::vector<double> Field(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return v;
}

void AddEndToEnd(const std::vector<Round>& rounds, RunResult* out) {
  auto median = [&](double Round::*field) {
    return Median(Field(rounds, [field](const Round& r) { return r.*field; }));
  };
  auto mean = [&](double Round::*field) {
    return Mean(Field(rounds, [field](const Round& r) { return r.*field; }));
  };
  out->Add("ops_per_s", median(&Round::ops_per_s), "1/s");
  out->Add("put_p50_us", median(&Round::put_p50), "us");
  out->Add("put_p99_us", median(&Round::put_p99), "us");
  out->Add("get_p50_us", median(&Round::get_p50), "us");
  out->Add("get_p99_us", median(&Round::get_p99), "us");
  out->Add("write_amp", mean(&Round::write_amp), "ratio");
  out->Add("space_amp", mean(&Round::space_amp), "ratio");
  out->Info("rounds", U64(rounds.size()));
  out->Info("round_ops_per_s", DoubleList(Field(rounds, [](auto& r) { return r.ops_per_s; })));
  out->Info("round_get_p50_us", DoubleList(Field(rounds, [](auto& r) { return r.get_p50; })));
}

// ---------------------------------------------------------------------
// fill

std::vector<uint64_t> Permutation(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> perm(n);
  for (uint64_t i = 0; i < n; i++) perm[i] = i;
  elmo::Random64 rng(seed);
  for (uint64_t i = n - 1; i > 0; i--) std::swap(perm[i], perm[rng.Uniform(i + 1)]);
  return perm;
}

// Puts every key of `perm` into a fresh store (version `version`) and
// waits for background work; then reads back a seeded sample.
Round RunFillRound(Store& store, const std::vector<uint64_t>& perm,
                   uint64_t seed, uint64_t version, Checker* checker,
                   RunResult* layer) {
  Round r;
  Status s = store.Open(FillOptions());
  if (!s.ok()) {
    checker->Fail("fill open failed: " + s.ToString());
    return r;
  }
  DB* db = store.db.get();
  EnvDelta env_delta;
  env_delta.Start(&store.env);
  Latencies puts, gets;
  std::string value;
  const int64_t t0 = NowNs();
  for (uint64_t i = 0; i < perm.size(); i++) {
    const std::string key = Key(perm[i]);
    MakeValue(key, version, seed, &value);
    SetRequestId(i + 1);
    const int64_t p0 = NowNs();
    s = TracedPut(db, key, value);
    puts.Add(NowNs() - p0);
    if (!s.ok()) checker->Fail("fill put " + key + ": " + s.ToString());
  }
  const int64_t d0 = NowNs();
  s = Drain(db);
  const int64_t t1 = NowNs();
  checker->Attempted(perm.size());
  if (!s.ok()) checker->Fail("fill drain: " + s.ToString());
  r.ops_per_s = perm.size() / Secs(t1 - t0);
  r.drain_s = Secs(t1 - d0);
  r.put_wait_s = puts.SecondsAbove(100 * 1000 * puts.PercentileUs(50));

  const double user_bytes = static_cast<double>(perm.size() * kEntryBytes);
  r.write_amp = store.WrittenBytes() / user_bytes;
  r.space_amp = store.env.FileBytes(kDbName) / user_bytes;
  r.engine = EngineCounts::Of(db);

  elmo::Random64 rng(seed ^ (version << 32) ^ 0xfeed);
  for (uint64_t j = 0; j < kFillReadback; j++) {
    const std::string key = Key(perm[rng.Uniform(perm.size())]);
    SetRequestId(perm.size() + j + 1);
    const int64_t g0 = NowNs();
    s = TracedGet(db, key, &value);
    gets.Add(NowNs() - g0);
    uint64_t got = 0;
    if (!s.ok() || !CheckValue(key, value, seed, &got) || got != version) {
      checker->Fail("fill read-back of key " + key + " returned " +
                    (s.ok() ? "a wrong value" : s.ToString()));
    }
  }
  SetRequestId(0);
  checker->Attempted(kFillReadback);
  r.TakeLatencies(puts, gets);
  r.cache_hit_rate = CacheHitRate(db);
  if (layer != nullptr) env_delta.AddTo(&store.env, user_bytes, kFillReadback, layer);
  ReleaseFreedMemory();
  return r;
}

// Fill set-up work besides the permutation: kFillWarmKeys Puts into a
// memtable large enough never to flush, so the set-up is foreground
// work only and takes the same time on every run.
bool WarmUp(Store& store, const std::vector<uint64_t>& perm, uint64_t seed,
            Checker* checker) {
  Options o = FillOptions();
  o.write_buffer_size = 64 << 20;
  Status s = store.Open(o);
  std::string value;
  for (uint64_t i = 0; s.ok() && i < kFillWarmKeys; i++) {
    const std::string key = Key(perm[i]);
    MakeValue(key, 0, seed, &value);
    s = store.db->Put({}, key, value);
  }
  checker->Attempted(kFillWarmKeys);
  if (!s.ok()) checker->Fail("fill warm-up: " + s.ToString());
  return s.ok();
}

// Runs rounds until `seconds` have passed (at least one).
std::vector<Round> FillRounds(Store& store, const std::vector<uint64_t>& perm,
                              uint64_t seed, double seconds,
                              uint64_t* next_version, Checker* checker,
                              RunResult* layer) {
  std::vector<Round> rounds;
  const int64_t start = NowNs();
  while (rounds.empty() || Secs(NowNs() - start) < seconds) {
    RunResult* l = layer != nullptr && rounds.empty() ? layer : nullptr;
    rounds.push_back(RunFillRound(store, perm, seed, (*next_version)++, checker, l));
  }
  return rounds;
}

// ---------------------------------------------------------------------
// tune

// LlmClient wrapper that times every completion (and opens a span in
// the traced run).
class TimedLlm : public elmo::llm::LlmClient {
 public:
  explicit TimedLlm(elmo::llm::LlmClient* base) : base_(base) {}

  Status Complete(const std::vector<elmo::llm::ChatMessage>& messages,
                  std::string* response) override {
    ScopedSpan span(SpanName::kLlmComplete);
    const int64_t t0 = NowNs();
    Status s = base_->Complete(messages, response);
    total_ns_ += NowNs() - t0;
    calls_++;
    return s;
  }
  const char* Name() const override { return base_->Name(); }

  int64_t total_ns() const { return total_ns_; }
  uint64_t calls() const { return calls_; }

 private:
  elmo::llm::LlmClient* const base_;
  int64_t total_ns_ = 0;
  uint64_t calls_ = 0;
};

struct Session {
  elmo::tune::TuningOutcome outcome;
  double seconds = 0;
  int64_t llm_ns = 0;
  uint64_t llm_calls = 0;
};

Session RunSession(elmo::bench::BenchRunner* runner,
                   const elmo::bench::WorkloadSpec& spec) {
  elmo::llm::SimulatedExpertLlm expert;
  TimedLlm llm(&expert);
  elmo::tune::TuningSession session(runner, &llm, spec);
  Session out;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(SpanName::kTuningSession);
    out.outcome = session.Run();
  }
  out.seconds = Secs(NowNs() - t0);
  out.llm_ns = llm.total_ns();
  out.llm_calls = llm.calls();
  return out;
}

// Every iteration recorded, best >= baseline, and the same gain as the
// first session of the run.
void CheckSession(const Session& s, double* gain, Checker* checker) {
  const auto& o = s.outcome;
  const int want = elmo::tune::TuningConfig{}.max_iterations;
  bool ok = static_cast<int>(o.iterations.size()) == want;
  for (size_t i = 0; ok && i < o.iterations.size(); i++) {
    ok = o.iterations[i].iteration == static_cast<int>(i + 1);
  }
  checker->Attempted(1 + o.iterations.size());
  if (!ok) checker->Fail("tuning session recorded " + U64(o.iterations.size()) +
                         " iterations, want " + U64(want));
  if (o.best_result.ops_per_sec < o.baseline.ops_per_sec) {
    checker->Fail("tuning session best is below its baseline");
  }
  const double g = o.ThroughputGain();
  if (*gain == 0) {
    *gain = g;
  } else if (g != *gain) {
    checker->Fail("tuning gain changed between sessions");
  }
}

// Replays BenchRunner (traced) on every configuration the session
// benchmarked, checking each full run reproduces the session's result;
// returns the replay's wall seconds.
double ReplaySession(elmo::bench::BenchRunner* runner,
                     const elmo::bench::WorkloadSpec& spec,
                     const elmo::tune::TuningOutcome& o, uint64_t* virtual_ops,
                     Checker* checker) {
  const int64_t t0 = NowNs();
  Options current;
  {
    ScopedSpan span(SpanName::kBenchRun);
    *virtual_ops += runner->Run(spec, current).ops;
  }
  for (const auto& rec : o.iterations) {
    if (rec.applied_changes.empty()) continue;
    Options candidate = current;
    for (const auto& [name, value] : rec.applied_changes) {
      Status s = elmo::lsm::OptionsSchema::Instance().Apply(&candidate, name, value);
      if (!s.ok()) checker->Fail("replay cannot apply " + name + ": " + s.ToString());
    }
    // Like the session: a probe before every full run (TuningSession
    // skips it below 100 probe ops).
    const uint64_t probe_ops = static_cast<uint64_t>(
        spec.num_ops * elmo::tune::TuningConfig{}.probe_fraction);
    if (probe_ops >= 100) {
      ScopedSpan span(SpanName::kBenchProbe);
      runner->RunProbe(spec, candidate, probe_ops);
    }
    if (rec.early_aborted) continue;
    elmo::bench::BenchResult r;
    {
      ScopedSpan span(SpanName::kBenchRun);
      r = runner->Run(spec, candidate);
    }
    *virtual_ops += r.ops;
    checker->Attempted(1);
    if (r.ops_per_sec != rec.result.ops_per_sec) {
      checker->Fail("replayed iteration " + U64(rec.iteration) +
                    " differs from the session's run");
    }
    if (rec.kept) current = candidate;
  }
  return Secs(NowNs() - t0);
}

// Loads kCheckKeys keys in key order on the real engine (MemEnv) with
// `config` scaled like BenchRunner scales it, then reads every key back
// in a seeded order. Fills the round's latencies and amplifications, and
// the per-layer metrics into `layer` when it is set.
void CheckOnEngine(const Options& config, uint64_t seed, Checker* checker,
                   Round* r, RunResult* layer) {
  Store store;
  Status s = store.Open(elmo::bench::ScaleCapacities(config));
  EnvDelta env_delta;
  env_delta.Start(&store.env);
  Latencies puts, gets;
  if (s.ok()) s = LoadSorted(&store, kCheckKeys, seed, &puts);
  checker->Attempted(kCheckKeys);
  if (!s.ok()) {
    checker->Fail("engine-check load: " + s.ToString());
    return;
  }
  DB* db = store.db.get();
  std::string value;
  for (uint64_t i = 0; i < kCheckKeys; i++) {
    const std::string key = Key((i * 7919 + seed) % kCheckKeys);
    const int64_t t0 = NowNs();
    s = TracedGet(db, key, &value);
    gets.Add(NowNs() - t0);
    uint64_t got = 0;
    if (!s.ok() || !CheckValue(key, value, seed, &got) || got != 0) {
      checker->Fail("engine-check read-back of key " + key + " returned " +
                    (s.ok() ? "a wrong value" : s.ToString()));
    }
  }
  checker->Attempted(kCheckKeys);
  r->TakeLatencies(puts, gets);
  const double user_bytes = static_cast<double>(kCheckKeys * kEntryBytes);
  r->write_amp = store.WrittenBytes() / user_bytes;
  r->space_amp = store.env.FileBytes(kDbName) / user_bytes;
  if (layer == nullptr) return;
  EngineCounts::Of(db).AddTo(layer);
  layer->Add("lsm.put_wait_s", puts.SecondsAbove(100 * 1000 * puts.PercentileUs(50)), "s");
  const int64_t d0 = NowNs();
  s = Drain(db);
  if (!s.ok()) checker->Fail("engine-check drain: " + s.ToString());
  layer->Add("lsm.drain_s", Secs(NowNs() - d0), "s");
  layer->Add("table.cache_hit_rate", CacheHitRate(db), "ratio");
  env_delta.AddTo(&store.env, user_bytes, kCheckKeys, layer);
}

// A tuning session followed by an engine check at the session's
// starting configuration. The round's rate is iterations (plus the
// baseline run) per wall second of the session.
Round RunTuneRound(elmo::bench::BenchRunner* runner,
                   const elmo::bench::WorkloadSpec& spec, uint64_t seed,
                   double* gain, Checker* checker) {
  const Session session = RunSession(runner, spec);
  ReleaseFreedMemory();
  CheckSession(session, gain, checker);
  Round r;
  CheckOnEngine(Options{}, seed, checker, &r, nullptr);
  r.ops_per_s = (1 + session.outcome.iterations.size()) / session.seconds;
  return r;
}

elmo::HardwareProfile TuneHardware() {
  return elmo::HardwareProfile::Make(4, 8, elmo::DeviceModel::NvmeSsd());
}

}  // namespace

// ---------------------------------------------------------------------

void RunFill(const RunConfig& cfg, Checker* checker, RunResult* out) {
  Store store;
  const std::vector<uint64_t> perm = Permutation(kFillKeys, cfg.seed);
  if (!WarmUp(store, perm, cfg.seed, checker)) return;
  out->setup_s = Secs(NowNs() - cfg.start_ns);
  if (cfg.setup_only) return;
  uint64_t version = 1;
  if (!cfg.trace) {
    AddEndToEnd(FillRounds(store, perm, cfg.seed, cfg.seconds, &version, checker, nullptr),
                out);
    return;
  }
  const auto plain = FillRounds(store, perm, cfg.seed, cfg.seconds * kTracedPhase,
                                &version, checker, nullptr);
  SetTracing(true);
  const auto traced = FillRounds(store, perm, cfg.seed, cfg.seconds * kTracedPhase,
                                 &version, checker, out);
  SetTracing(false);
  EngineCounts e;
  for (const auto& r : traced) {
    e.flushes += r.engine.flushes;
    e.compactions += r.engine.compactions;
    e.compaction_mib += r.engine.compaction_mib;
    e.stall_us += r.engine.stall_us;
    e.stops += r.engine.stops;
  }
  e.AddTo(out, 1.0 / traced.size());
  out->Add("lsm.put_wait_s", Mean(Field(traced, [](auto& r) { return r.put_wait_s; })), "s");
  out->Add("lsm.drain_s", Mean(Field(traced, [](auto& r) { return r.drain_s; })), "s");
  out->Add("table.cache_hit_rate", Mean(Field(traced, [](auto& r) { return r.cache_hit_rate; })), "ratio");
  AddUnusedTuneLayers(out);
  AddSpanMetrics(out);
  AddOverhead(out, Median(Field(plain, [](auto& r) { return r.ops_per_s; })),
              Median(Field(traced, [](auto& r) { return r.ops_per_s; })));
  ProbeLayers(cfg.seed, checker, out);
}

void RunTune(const RunConfig& cfg, Checker* checker, RunResult* out) {
  const auto spec = elmo::bench::WorkloadSpec::Mixgraph(kTuneOps);
  elmo::bench::BenchRunner runner(TuneHardware(), kTuneSeed);
  double baseline = 0;
  for (int i = 0; i < 2; i++) {
    const double ops = runner.Run(spec, Options{}).ops_per_sec;
    checker->Attempted(1);
    if (baseline != 0 && ops != baseline) {
      checker->Fail("baseline bench run is not deterministic");
    }
    baseline = ops;
  }
  out->setup_s = Secs(NowNs() - cfg.start_ns);
  if (cfg.setup_only) return;
  double gain = 0;
  std::vector<Round> rounds;
  const double window = cfg.trace ? cfg.seconds * kTracedPhase : cfg.seconds;
  const int64_t start = NowNs();
  while (rounds.empty() || Secs(NowNs() - start) < window) {
    rounds.push_back(RunTuneRound(&runner, spec, cfg.seed, &gain, checker));
  }
  if (!cfg.trace) {
    AddEndToEnd(rounds, out);
    out->Add("tune_gain", gain, "ratio");
    return;
  }
  SetTracing(true);
  const Session traced = RunSession(&runner, spec);
  CheckSession(traced, &gain, checker);
  uint64_t virtual_ops = 0;
  const double bench_s =
      ReplaySession(&runner, spec, traced.outcome, &virtual_ops, checker);
  const SpanTotals runs = TotalsFor(SpanName::kBenchRun);
  Round check;
  CheckOnEngine(Options{}, cfg.seed, checker, &check, out);
  SetTracing(false);
  out->Add("llm.complete_ms",
           traced.llm_calls ? traced.llm_ns / 1e6 / traced.llm_calls : 0, "ms");
  out->Add("bench_kit.run_s", runs.count ? Secs(runs.total_ns) / runs.count : 0,
           "s");
  out->Add("bench_kit.wall_us_per_virtual_op",
           virtual_ops ? runs.total_ns / 1e3 / virtual_ops : 0, "us");
  out->Add("elmo.self_share",
           (traced.seconds - traced.llm_ns / 1e9 - bench_s) / traced.seconds,
           "ratio");
  AddSpanMetrics(out);
  AddOverhead(out, Median(Field(rounds, [](auto& r) { return r.ops_per_s; })),
              (1 + traced.outcome.iterations.size()) / traced.seconds);
  ProbeLayers(cfg.seed, checker, out);
}

std::string CheckTunedConfig(uint64_t seed) {
  const auto spec = elmo::bench::WorkloadSpec::Mixgraph(kTuneOps);
  elmo::bench::BenchRunner runner(TuneHardware(), kTuneSeed);
  const Session session = RunSession(&runner, spec);
  Checker checker;
  Round unused;
  CheckOnEngine(session.outcome.best_options, seed, &checker, &unused, nullptr);
  return checker.failed() == 0
             ? ""
             : std::to_string(checker.failed()) + " failed reads; first: " +
                   checker.first_bad();
}

}  // namespace wallbench
