#include "bench_kit/bench_runner.h"

#include <algorithm>

#include "bench_kit/generators.h"
#include "env/sim_env.h"
#include "lsm/db.h"

namespace elmo::bench {

using lsm::DB;
using lsm::Options;
using lsm::ReadOptions;
using lsm::Ticker;
using lsm::WriteOptions;

lsm::Options ScaleCapacities(const lsm::Options& opts) {
  Options o = opts;
  auto scale = [](uint64_t v) {
    return std::max<uint64_t>(v / kCapacityScale, 1);
  };
  o.write_buffer_size = std::max<uint64_t>(
      scale(opts.write_buffer_size), 64 << 10);
  o.block_cache_size = scale(opts.block_cache_size);
  o.max_bytes_for_level_base =
      std::max<uint64_t>(scale(opts.max_bytes_for_level_base), 1 << 20);
  o.target_file_size_base =
      std::max<uint64_t>(scale(opts.target_file_size_base), 256 << 10);
  o.max_total_wal_size = opts.max_total_wal_size == 0
                             ? 0
                             : std::max<uint64_t>(
                                   scale(opts.max_total_wal_size), 1 << 20);
  return o;
}

namespace {

// The sampler's ring as it stands, into `r`.
void TakeTimeSeries(DB* db, BenchResult* r) {
  lsm::TimeSeries series = db->GetTimeSeries();
  r->timeseries = std::move(series.samples);
  r->sample_interval_us = series.interval_us;
  r->timeseries_dropped = series.dropped;
}

}  // namespace

BenchRunner::BenchRunner(const HardwareProfile& hw, uint64_t seed)
    : hw_(hw), seed_(seed) {}

BenchResult BenchRunner::Run(const WorkloadSpec& spec,
                             const lsm::Options& tuning_opts,
                             std::string* span_trace,
                             const EarlyStop& early_stop) {
  return RunInternal(spec, tuning_opts, span_trace, early_stop, nullptr,
                     /*hook_every=*/1);
}

BenchResult BenchRunner::RunProbe(const WorkloadSpec& spec,
                                  const lsm::Options& tuning_opts,
                                  uint64_t probe_ops) {
  return Run(spec, tuning_opts, nullptr,
             {probe_ops, [](const BenchResult&) { return true; }});
}

BenchResult BenchRunner::RunWithHook(const WorkloadSpec& spec,
                                     const lsm::Options& tuning_opts,
                                     const LiveHook& hook,
                                     uint64_t hook_every) {
  return RunInternal(spec, tuning_opts, nullptr, {}, hook,
                     std::max<uint64_t>(hook_every, 1));
}

BenchResult BenchRunner::RunInternal(const WorkloadSpec& spec,
                                     const lsm::Options& tuning_opts,
                                     std::string* span_trace,
                                     const EarlyStop& early_stop,
                                     const LiveHook& hook,
                                     uint64_t hook_every) {
  BenchResult result;
  result.workload = WorkloadTypeName(spec.type);

  auto env = std::make_unique<SimEnv>(hw_, seed_);
  // Capacities run at 1/kCapacityScale of their configured size; the
  // memory model must debit the footprint at full size or a config
  // that hoards memory (huge cache AND huge memtables) pays nothing
  // for it and the cache/memtable budget trade-off disappears.
  env->SetFootprintScale(kCapacityScale);
  Options opts = ScaleCapacities(tuning_opts);
  opts.env = env.get();
  opts.create_if_missing = true;
  // Benchmarks always record a time series (virtual-time intervals under
  // SimEnv) unless the caller configured a cadence explicitly.
  if (opts.stats_sample_interval_ms == 0) {
    opts.stats_sample_interval_ms = 250;
  }

  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, "/bench/db", &db);
  if (!s.ok()) {
    result.workload += " OPEN-FAILED: " + s.ToString();
    return result;
  }

  // Capture device IO and block-cache accesses for the whole run (the
  // preload included — its flush/compaction traffic is part of the
  // evidence). Trace files live outside the DB dir, on the same SimEnv.
  const std::string io_trace_path = "/bench/io.trace";
  const std::string cache_trace_path = "/bench/cache.trace";
  const bool io_tracing = db->StartIOTrace(io_trace_path).ok();
  const bool cache_tracing =
      db->StartBlockCacheTrace(cache_trace_path).ok();

  // Span-trace every run: slow ops above 5ms plus 1-in-32 sampling of
  // normal ops gives the analyzer both the tail and a baseline.
  const std::string span_trace_path = "/bench/span.trace";
  lsm::SpanTraceOptions span_opts;
  span_opts.slow_op_threshold_us = 5000;
  span_opts.sample_every = 32;
  const bool span_tracing =
      db->StartSpanTrace(span_trace_path, span_opts).ok();

  // Fold the runner's seed into the workload streams: distinct harness
  // seeds must measure distinct (still reproducible) runs even at
  // scales where the simulated page cache never consults its RNG.
  const uint64_t run_seed = spec.seed * 0x9e3779b97f4a7c15ull + seed_;
  Random64 op_rng(run_seed ^ 0x5ca1ab1e);
  ValueGenerator value_gen(run_seed + 1);
  ZipfianGenerator zipf(std::max<uint64_t>(spec.num_keys, 2),
                        spec.zipf_theta, run_seed + 2);
  ParetoValueSize pareto(spec.pareto_k, spec.pareto_sigma,
                         /*loc=*/spec.value_size / 4.0, run_seed + 3);

  // ---- preload phase (not timed), like db_bench's pre-filled DB ----
  if (spec.preload_keys > 0) {
    for (uint64_t i = 0; i < spec.preload_keys; i++) {
      Status ps =
          db->Put(WriteOptions(), MakeKey(i),
                  value_gen.Generate(spec.value_size));
      if (!ps.ok()) {
        result.write_errors++;
        result.workload += " PRELOAD-FAILED: " + ps.ToString();
        return result;
      }
    }
    // Drain memtables but do NOT force compactions to settle: like
    // db_bench, the read phase starts against whatever L0 residue the
    // configuration's compaction settings left behind — which is
    // precisely what bloom filters and compaction tuning then fix.
    db->FlushMemTable();
  }

  // ---- timed phase ----
  const uint64_t t_start = env->NowMicros();
  uint64_t bytes_processed = 0;
  // Fills `r`'s throughput fields for the first `done` ops.
  auto set_timing = [&](uint64_t done, BenchResult* r) {
    uint64_t elapsed_us = env->NowMicros() - t_start;
    if (elapsed_us == 0) elapsed_us = 1;
    // T logical threads interleave their independent op streams; with
    // enough cores the wall-clock contracts accordingly (first-order
    // model — see DESIGN.md).
    const double parallel = std::min(spec.threads, hw_.cpu_cores);
    const double wall_seconds =
        (elapsed_us / 1e6) / std::max(1.0, parallel);
    r->ops = done - r->errors();
    r->elapsed_seconds = wall_seconds;
    r->ops_per_sec = r->ops / wall_seconds;
    r->mb_per_sec = bytes_processed / 1048576.0 / wall_seconds;
  };

  std::string read_value;
  const uint64_t phase_len = std::max<uint64_t>(spec.num_ops / 3, 1);
  uint64_t i = 0;
  for (; i < spec.num_ops && result.write_errors == 0; i++) {
    if (early_stop.stop && i == early_stop.at_op) {
      BenchResult so_far = result;
      set_timing(i, &so_far);
      TakeTimeSeries(db.get(), &so_far);
      if (early_stop.stop(so_far)) break;
    }
    if (hook && i % hook_every == 0) hook(db.get(), i);
    bool is_write = false;
    bool is_scan = false;
    switch (spec.type) {
      case WorkloadType::kFillRandom: is_write = true; break;
      case WorkloadType::kReadRandom: is_write = false; break;
      case WorkloadType::kSeekRandom: is_scan = true; break;
      case WorkloadType::kPhased:
        // Hard phase boundaries at thirds: load -> point reads -> scans.
        is_write = i < phase_len;
        is_scan = !is_write && i >= 2 * phase_len;
        break;
      case WorkloadType::kReadRandomWriteRandom:
      case WorkloadType::kMixgraph:
      case WorkloadType::kReadWhileWriting:
        is_write = op_rng.NextDouble() < spec.write_fraction;
        break;
    }

    const uint64_t op_start = env->NowMicros();
    if (is_scan) {
      // Scan-heavy op: fresh iterator, random Seek, scan_length Next()s
      // (db_bench seekrandom with --seek_nexts).
      uint64_t key_index = op_rng.Uniform(spec.num_keys);
      auto iter = db->NewIterator(ReadOptions());
      iter->Seek(MakeKey(key_index));
      for (uint32_t n = 0; n < spec.scan_length && iter->Valid(); n++) {
        bytes_processed += iter->key().size() + iter->value().size();
        iter->Next();
      }
      if (!iter->status().ok()) result.scan_errors++;
      result.read_micros.Add(
          static_cast<double>(env->NowMicros() - op_start));
    } else if (is_write) {
      uint64_t key_index;
      uint32_t vsize;
      if (spec.type == WorkloadType::kMixgraph) {
        key_index = zipf.Next();
        vsize = pareto.Next();
      } else {
        key_index = op_rng.Uniform(spec.num_keys);
        vsize = spec.value_size;
      }
      Status ws = db->Put(WriteOptions(), MakeKey(key_index),
                          value_gen.Generate(vsize));
      if (!ws.ok()) {
        result.write_errors++;
        continue;
      }
      bytes_processed += 16 + vsize;
      result.write_micros.Add(
          static_cast<double>(env->NowMicros() - op_start));
    } else {
      uint64_t key_index = (spec.type == WorkloadType::kMixgraph)
                               ? zipf.Next()
                               : op_rng.Uniform(spec.num_keys);
      Status rs = db->Get(ReadOptions(), MakeKey(key_index), &read_value);
      if (rs.ok()) {
        bytes_processed += 16 + read_value.size();
      } else if (!rs.IsNotFound()) {
        result.read_errors++;
      }
      result.read_micros.Add(
          static_cast<double>(env->NowMicros() - op_start));
    }
  }

  if (hook) hook(db.get(), spec.num_ops);  // final observation
  set_timing(i, &result);

  const auto& st = db->stats();
  result.sim_seed = seed_;
  result.user_bytes_written = st.Get(Ticker::kBytesWritten);
  result.wal_bytes = st.Get(Ticker::kWalBytes);
  result.flush_bytes = st.Get(Ticker::kFlushBytes);
  result.compaction_bytes_written = st.Get(Ticker::kCompactionBytesWritten);
  result.write_stall_micros = st.Get(Ticker::kWriteStallMicros);
  result.write_slowdowns = st.Get(Ticker::kWriteSlowdownCount);
  result.write_stops = st.Get(Ticker::kWriteStopCount);
  result.flushes = st.Get(Ticker::kFlushCount);
  result.compactions = st.Get(Ticker::kCompactionCount);
  result.writeback_stalls = env->io_stats().writeback_stalls;
  std::string prop;
  if (db->GetProperty("elmo.levelsummary", &prop)) {
    result.level_summary = prop;
  }
  if (db->GetProperty("elmo.stats", &prop)) {
    result.engine_stats = prop;
  }
  // "elmo.stats" just folded the block cache's counters into the
  // tickers, so they are current here.
  const uint64_t cache_lookups =
      st.Get(Ticker::kBlockCacheHit) + st.Get(Ticker::kBlockCacheMiss);
  if (cache_lookups > 0) {
    result.block_cache_hit_rate =
        static_cast<double>(st.Get(Ticker::kBlockCacheHit)) / cache_lookups;
  }
  TakeTimeSeries(db.get(), &result);
  result.health = db->GetHealth();

  // Close out the traces and distill them offline: per-kind/context IO
  // breakdown plus the miss-ratio-vs-capacity curve simulated around the
  // *scaled* capacity the engine actually ran with.
  if (io_tracing && db->EndIOTrace().ok()) {
    IOAnalysis analysis;
    if (AnalyzeIOTrace(env.get(), io_trace_path, /*heatmap_buckets=*/20,
                       &analysis)
            .ok()) {
      result.io_analysis = std::move(analysis);
    }
  }
  if (cache_tracing && db->EndBlockCacheTrace().ok()) {
    CacheSimResult sim;
    if (SimulateCacheTrace(env.get(), cache_trace_path,
                           DefaultCapacityLadder(opts.block_cache_size),
                           /*num_shard_bits=*/4, &sim)
            .ok() &&
        sim.records > 0) {
      result.cache_sim = std::move(sim);
      result.scaled_block_cache_size = opts.block_cache_size;
    }
  }
  if (span_tracing && db->EndSpanTrace().ok()) {
    SpanAttribution attr;
    if (AnalyzeSpanTrace(env.get(), span_trace_path, &attr).ok() &&
        attr.trees > 0) {
      result.span_attribution = std::move(attr);
    }
    if (span_trace != nullptr) {
      env->ReadFileToString(span_trace_path, span_trace);
    }
  }
  return result;
}

}  // namespace elmo::bench
