// BenchRunner: opens a fresh DB on a fresh SimEnv for the given
// hardware profile, runs one workload under the given options, and
// returns the measured result. One Run() == one db_bench invocation in
// the paper's loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bench_kit/report.h"
#include "bench_kit/workload.h"
#include "env/hardware_profile.h"
#include "lsm/db.h"
#include "lsm/options.h"

namespace elmo::bench {

// Byte-capacity options are divided by this factor when instantiating
// the engine: our datasets are ~100x smaller than the paper's, so
// capacities (memtable, cache, level targets) shrink alongside to keep
// flush/compaction cadence and cache-coverage ratios faithful. The
// options *file* the tuning loop sees always carries full-size values.
inline constexpr uint64_t kCapacityScale = 64;

lsm::Options ScaleCapacities(const lsm::Options& opts);

// The benchmark monitor's checkpoint (ELMo-Tune's "first 30s" check):
// before timed op `at_op`, `stop` sees the result so far (error counts,
// latency histograms, ops, elapsed time, throughput and the sampler's
// time series). Returning true ends the run there; the stopped run is
// then assembled like a finished one. An empty `stop`, or an `at_op`
// at or past the workload's end, never stops.
struct EarlyStop {
  uint64_t at_op = 0;
  std::function<bool(const BenchResult& so_far)> stop;
};

class BenchRunner {
 public:
  BenchRunner(const HardwareProfile& hw, uint64_t seed = 42);

  // Runs `spec` with `tuning_opts` (unscaled, as written in the options
  // file). A fresh environment and DB are created per call, like the
  // paper's per-iteration db_bench runs. The run's SimEnv dies with it,
  // so a caller that persists the raw ELMOSPN1 span trace passes
  // `span_trace` to receive its bytes. `early_stop` (see EarlyStop)
  // may end the run at its checkpoint.
  BenchResult Run(const WorkloadSpec& spec, const lsm::Options& tuning_opts,
                  std::string* span_trace = nullptr,
                  const EarlyStop& early_stop = {});

  // `Run` stopped after `probe_ops` operations. TuningSession watches
  // its one run through an EarlyStop instead; this stays for the
  // wall-clock benchmark's session replay, which still calls it.
  BenchResult RunProbe(const WorkloadSpec& spec,
                       const lsm::Options& tuning_opts, uint64_t probe_ops);

  // Mid-run observation point: called with the live DB every
  // `hook_every` ops during the timed phase (and once after the last
  // op). The online tuner hangs off this to watch the sampler ring and
  // apply SetOptions() deltas while the workload runs.
  using LiveHook = std::function<void(lsm::DB*, uint64_t op_index)>;
  BenchResult RunWithHook(const WorkloadSpec& spec,
                          const lsm::Options& tuning_opts,
                          const LiveHook& hook, uint64_t hook_every = 512);

  const HardwareProfile& hardware() const { return hw_; }

 private:
  BenchResult RunInternal(const WorkloadSpec& spec,
                          const lsm::Options& tuning_opts,
                          std::string* span_trace,
                          const EarlyStop& early_stop,
                          const LiveHook& hook, uint64_t hook_every);

  HardwareProfile hw_;
  uint64_t seed_;
};

}  // namespace elmo::bench
