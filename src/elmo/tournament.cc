#include "elmo/tournament.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <set>

#include "elmo/online_tuner.h"
#include "elmo/option_evaluator.h"
#include "elmo/prompt_generator.h"
#include "elmo/safeguard.h"
#include "env/sim_env.h"
#include "llm/expert_llm.h"
#include "lsm/cost_model.h"
#include "lsm/options_schema.h"
#include "sysinfo/system_probe.h"
#include "util/json.h"
#include "util/random.h"

namespace elmo::tune {

using bench::BenchResult;
using bench::WorkloadSpec;
using bench::WorkloadType;
using lsm::Options;
using lsm::OptionsSchema;

namespace {

double ObservedOps(const TunerObservation& o) {
  return o.result.ops_per_sec;
}

// Index of the best-throughput observation (earliest wins ties, so the
// choice is deterministic).
size_t BestIndex(const std::vector<TunerObservation>& history) {
  size_t best = 0;
  for (size_t i = 1; i < history.size(); i++) {
    if (ObservedOps(history[i]) > ObservedOps(history[best])) best = i;
  }
  return best;
}

// ---------------------------------------------------------------------
// Shared search space: the values a practitioner would actually sweep,
// not the schema's full legal ranges. Random search samples it, grid
// search enumerates a coarse subset, the cost model scores all of it.
// ---------------------------------------------------------------------

struct SearchDim {
  const char* option;
  std::vector<const char*> values;  // values[0] is the engine default
};

const std::vector<SearchDim>& SearchSpace() {
  static const std::vector<SearchDim> kSpace = {
      {"write_buffer_size",
       {"67108864", "33554432", "134217728", "268435456"}},
      {"max_write_buffer_number", {"2", "3", "4", "6"}},
      {"max_background_jobs", {"2", "4", "8"}},
      {"level0_file_num_compaction_trigger", {"4", "2", "8"}},
      {"block_cache_size",
       {"8388608", "67108864", "268435456", "1073741824"}},
      {"bloom_filter_bits_per_key", {"0", "10", "14"}},
      {"max_bytes_for_level_base", {"268435456", "536870912"}},
      {"compaction_readahead_size", {"2097152", "0", "8388608"}},
  };
  return kSpace;
}

Options ApplyAssignment(const std::vector<int>& choice) {
  Options o;
  const auto& space = SearchSpace();
  for (size_t d = 0; d < space.size(); d++) {
    // Values come from the static table above; Apply cannot fail.
    Status s = OptionsSchema::Instance().Apply(&o, space[d].option,
                                               space[d].values[choice[d]]);
    (void)s;
  }
  return o;
}

// ---------------------------------------------------------------------
// Random search
// ---------------------------------------------------------------------

class RandomSearchTuner : public Tuner {
 public:
  explicit RandomSearchTuner(uint64_t seed) : rng_(seed) {}

  const char* Name() const override { return "random"; }

  Options Propose(const std::vector<TunerObservation>& history) override {
    (void)history;
    const auto& space = SearchSpace();
    std::vector<int> choice(space.size(), 0);
    // Touch 3..6 random dimensions, default values elsewhere — the
    // shape of a practitioner's random trial, and comparable to the
    // LLM's 3-8 changes per iteration.
    const int touched = 3 + static_cast<int>(rng_.Uniform(4));
    std::vector<size_t> dims(space.size());
    for (size_t i = 0; i < dims.size(); i++) dims[i] = i;
    for (size_t i = dims.size(); i > 1; i--) {
      std::swap(dims[i - 1], dims[rng_.Uniform(i)]);
    }
    for (int i = 0; i < touched; i++) {
      const size_t d = dims[i];
      choice[d] = 1 + static_cast<int>(
                          rng_.Uniform(space[d].values.size() - 1));
    }
    return ApplyAssignment(choice);
  }

 private:
  Random64 rng_;
};

// ---------------------------------------------------------------------
// Grid search
// ---------------------------------------------------------------------

class GridSearchTuner : public Tuner {
 public:
  GridSearchTuner() {
    // Coarse row-major grid over the four highest-leverage options.
    // Point 0 (all defaults) is skipped — trial 0 already measured it.
    for (const char* bloom : {"0", "10"}) {
      for (const char* cache : {"8388608", "268435456"}) {
        for (const char* wbs : {"67108864", "268435456"}) {
          for (const char* jobs : {"2", "8"}) {
            grid_.push_back({bloom, cache, wbs, jobs});
          }
        }
      }
    }
    grid_.erase(grid_.begin());
  }

  const char* Name() const override { return "grid"; }

  Options Propose(const std::vector<TunerObservation>& history) override {
    if (next_ >= grid_.size()) {
      // Budget outlived the grid: re-propose the best seen (flat tail —
      // the honest behavior of an exhausted grid).
      return history[BestIndex(history)].options;
    }
    const auto& p = grid_[next_++];
    Options o;
    const OptionsSchema& schema = OptionsSchema::Instance();
    Status s = schema.Apply(&o, "bloom_filter_bits_per_key", p[0]);
    s = schema.Apply(&o, "block_cache_size", p[1]);
    s = schema.Apply(&o, "write_buffer_size", p[2]);
    s = schema.Apply(&o, "max_background_jobs", p[3]);
    (void)s;
    return o;
  }

 private:
  std::vector<std::array<const char*, 4>> grid_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------
// CAMAL-style cost-model tuner
// ---------------------------------------------------------------------

// Analytic per-op cost of a configuration under the given hardware and
// workload, built from the same first-order constants SimEnv charges
// (lsm/cost_model.h, env/device_model.h). The tuner ranks the whole
// search space by predicted throughput, proposes best-first, and after
// every observation updates per-(dimension,value) multiplicative biases
// — the active-learning loop that separates CAMAL-style tuning from
// blind search.
class CostModelTuner : public Tuner {
 public:
  CostModelTuner(const HardwareProfile& hw, const WorkloadSpec& workload,
                 uint64_t seed)
      : hw_(hw), workload_(workload), rng_(seed) {
    const auto& space = SearchSpace();
    bias_.resize(space.size());
    for (size_t d = 0; d < space.size(); d++) {
      bias_[d].assign(space[d].values.size(), 1.0);
    }
    // Enumerate the full cartesian space once; scoring is analytic and
    // cheap (a few thousand combos).
    std::vector<int> choice(space.size(), 0);
    Enumerate(0, &choice);
  }

  const char* Name() const override { return "cost_model"; }

  Options Propose(const std::vector<TunerObservation>& history) override {
    Calibrate(history);
    // Best-predicted unproposed combo under the current calibration.
    double best_score = -1;
    size_t best = SIZE_MAX;
    for (size_t i = 0; i < combos_.size(); i++) {
      if (proposed_.count(i)) continue;
      const double score = PredictOps(combos_[i]) * Bias(combos_[i]);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == SIZE_MAX) return history[BestIndex(history)].options;
    proposed_.insert(best);
    last_proposed_.push_back(best);
    return ApplyAssignment(combos_[best]);
  }

 private:
  void Enumerate(size_t dim, std::vector<int>* choice) {
    const auto& space = SearchSpace();
    if (dim == space.size()) {
      combos_.push_back(*choice);
      return;
    }
    for (size_t v = 0; v < space[dim].values.size(); v++) {
      (*choice)[dim] = static_cast<int>(v);
      Enumerate(dim + 1, choice);
    }
  }

  double Bias(const std::vector<int>& choice) const {
    double b = 1.0;
    for (size_t d = 0; d < choice.size(); d++) b *= bias_[d][choice[d]];
    return b;
  }

  // Fold each observed (predicted, measured) pair into the per-value
  // biases of the combo that produced it.
  void Calibrate(const std::vector<TunerObservation>& history) {
    // history[0] is the defaults baseline (not one of our proposals);
    // our k-th proposal produced history[k].
    for (size_t k = calibrated_; k < last_proposed_.size(); k++) {
      if (k + 1 >= history.size()) break;
      const std::vector<int>& combo = combos_[last_proposed_[k]];
      const double predicted = PredictOps(combo) * Bias(combo);
      const double measured = ObservedOps(history[k + 1]);
      if (predicted <= 0 || measured <= 0) continue;
      // Spread the residual across the combo's touched values with a
      // damped multiplicative update, clamped so one bad sample cannot
      // blow up the ranking.
      const double residual = measured / predicted;
      const double step =
          std::pow(residual, 0.5 / static_cast<double>(combo.size()));
      for (size_t d = 0; d < combo.size(); d++) {
        bias_[d][combo[d]] =
            std::clamp(bias_[d][combo[d]] * step, 0.25, 4.0);
      }
      calibrated_ = k + 1;
    }
  }

  // ---- the analytic model ----
  double PredictOps(const std::vector<int>& choice) const {
    const Options raw = ApplyAssignment(choice);
    // The bench scales byte capacities before running (bench_runner.h);
    // predict the configuration that will actually execute.
    const Options o = bench::ScaleCapacities(raw);

    const double value_bytes = workload_.value_size;
    const double entry_bytes = 16 + value_bytes;
    const double data_bytes =
        static_cast<double>(workload_.num_keys) * entry_bytes;

    double write_f = workload_.write_fraction;
    double scan_f = 0;
    switch (workload_.type) {
      case WorkloadType::kFillRandom: write_f = 1.0; break;
      case WorkloadType::kReadRandom: write_f = 0.0; break;
      case WorkloadType::kSeekRandom:
        write_f = 0.0;
        scan_f = 1.0;
        break;
      default: break;
    }
    const double read_f = 1.0 - write_f - scan_f;

    // --- write path ---
    double frontend_us =
        lsm::cost::kWalAppendBaseUs + lsm::cost::kMemtableInsertUs;
    if (o.enable_pipelined_write) {
      frontend_us *= lsm::cost::kPipelinedWriteFactor;
    }
    frontend_us += entry_bytes * lsm::cost::kWritePerByteUs;

    // Level count the data settles into; fewer levels -> less rewrite.
    const double level_base =
        std::max<double>(o.max_bytes_for_level_base, 1);
    double levels = 1;
    double cap = level_base;
    while (cap < data_bytes && levels < o.num_levels) {
      cap *= std::max(2.0, o.max_bytes_for_level_multiplier);
      levels++;
    }
    // First-order leveled write amplification: each level rewrites
    // roughly half the multiplier's worth of overlap.
    const double write_amp =
        1.0 + levels * std::max(2.0, o.max_bytes_for_level_multiplier) / 4.0;

    // Background demand per written entry: flush + compaction CPU plus
    // device bandwidth for write_amp copies of the entry.
    const double bg_cpu_us = lsm::cost::kFlushPerEntryUs +
                             write_amp * lsm::cost::kCompactionPerEntryUs;
    const double bg_io_us =
        write_amp * entry_bytes * 1e6 /
        static_cast<double>(hw_.device.seq_write_bps);
    const double bg_slots = std::max(
        1, std::min(o.ResolvedCompactionSlots() + o.ResolvedFlushSlots(),
                    hw_.cpu_cores - 1));
    // The writer proceeds at frontend speed while background keeps up;
    // once demand outruns the slots, the deficit surfaces as stall.
    const double write_us =
        std::max(frontend_us, (bg_cpu_us + bg_io_us) / bg_slots);

    // --- read path ---
    // Steady-state sorted runs a Get may probe: half the L0 trigger
    // plus one run per populated level.
    const double l0_runs = o.level0_file_num_compaction_trigger / 2.0;
    const double runs = l0_runs + levels;
    double probes = runs;
    if (o.bloom_filter_bits_per_key > 0) {
      const double fp =
          std::pow(0.6185, static_cast<double>(o.bloom_filter_bits_per_key));
      probes = 1.0 + (runs - 1.0) * fp;
    }
    // Cache coverage of the read working set: Zipfian workloads
    // concentrate ~80% of accesses in ~20% of the data.
    const bool zipfian = workload_.type == WorkloadType::kMixgraph;
    const double cache = static_cast<double>(o.block_cache_size);
    double hit;
    if (zipfian) {
      const double hot_cov = std::min(1.0, cache / (data_bytes * 0.2));
      const double cold_cov = std::min(1.0, cache / data_bytes);
      hit = std::min(0.98, 0.8 * hot_cov + 0.2 * cold_cov);
    } else {
      hit = std::min(0.98, cache / data_bytes);
    }
    const double miss_io_us = static_cast<double>(
        hw_.device.ReadCostMicros(o.block_size, /*sequential=*/false));
    const double read_us = lsm::cost::kGetBaseUs +
                           probes * lsm::cost::kGetPerFileProbeUs +
                           (1.0 - hit) * miss_io_us + hit * 2.0;

    // --- scans ---
    const double entries_per_block =
        std::max(1.0, static_cast<double>(o.block_size) / entry_bytes);
    const double scan_blocks = workload_.scan_length / entries_per_block;
    const double scan_us =
        read_us + scan_blocks * (1.0 - hit) *
                      static_cast<double>(hw_.device.ReadCostMicros(
                          o.block_size, /*sequential=*/true));

    const double total_us =
        write_f * write_us + read_f * read_us + scan_f * scan_us;
    if (total_us <= 0) return 0;
    return 1e6 / total_us;
  }

  HardwareProfile hw_;
  WorkloadSpec workload_;
  Random64 rng_;
  std::vector<std::vector<int>> combos_;
  std::set<size_t> proposed_;
  std::vector<size_t> last_proposed_;
  size_t calibrated_ = 0;
  std::vector<std::vector<double>> bias_;
};

// ---------------------------------------------------------------------
// The LLM contender: the full ELMo pipeline, one proposal per trial
// ---------------------------------------------------------------------

class LlmTuner : public Tuner {
 public:
  LlmTuner(const HardwareProfile& hw, const WorkloadSpec& workload,
           uint64_t seed)
      : hw_(hw), workload_(workload) {
    llm::ExpertConfig ecfg;
    ecfg.seed = seed;
    llm_ = std::make_unique<llm::SimulatedExpertLlm>(ecfg);
    chat_.push_back({"system", PromptGenerator::SystemMessage()});
    SimEnv probe_env(hw_, /*seed=*/1);
    profile_ = sysinfo::SystemProbe::Collect(&probe_env, "/probe");
  }

  const char* Name() const override { return "llm"; }

  Options Propose(const std::vector<TunerObservation>& history) override {
    const size_t best = BestIndex(history);
    const TunerObservation& best_obs = history[best];

    PromptInputs inputs;
    inputs.iteration = static_cast<int>(history.size());
    inputs.system = profile_;
    inputs.workload_description = workload_.Describe();
    inputs.current_options_ini =
        OptionsSchema::Instance().ToIniText(best_obs.options);
    inputs.last_benchmark_report = best_obs.result.ToReport();
    inputs.engine_telemetry = best_obs.result.engine_stats;
    inputs.timeseries = best_obs.result.timeseries;
    inputs.io_cache_evidence = best_obs.result.IoCacheEvidence();
    inputs.latency_attribution =
        best_obs.result.LatencyAttributionEvidence();
    inputs.health_evidence = best_obs.result.HealthEvidence();
    for (size_t i = 0; i < history.size(); i++) {
      char line[128];
      snprintf(line, sizeof(line), "Iteration %zu: %.0f ops/sec%s", i,
               ObservedOps(history[i]),
               i == best ? " (best, kept)" : (i == 0 ? " (defaults)"
                                                     : " (reverted)"));
      inputs.history.push_back(line);
    }
    if (history.size() > 1 && best != history.size() - 1) {
      inputs.deterioration_note =
          "The previous configuration DECREASED performance and was "
          "reverted; the configuration above is the best-known one.";
    }
    for (const auto& name : safeguard_.blacklist()) {
      inputs.locked_options.push_back(name);
    }

    chat_.push_back({"user", PromptGenerator::Generate(inputs)});
    std::string response;
    Status s = llm_->Complete(chat_, &response);
    if (!s.ok()) return best_obs.options;
    chat_.push_back({"assistant", response});

    ExtractedProposals proposals = OptionEvaluator::Extract(response);
    Options candidate;
    SafeguardReport report =
        safeguard_.Validate(best_obs.options, proposals.pairs, &candidate);
    if (report.applied.empty()) {
      // Unusable response: the trial is spent re-measuring the best
      // config — format breaks cost the LLM budget, as in the paper.
      return best_obs.options;
    }
    return candidate;
  }

 private:
  HardwareProfile hw_;
  WorkloadSpec workload_;
  std::unique_ptr<llm::SimulatedExpertLlm> llm_;
  SafeguardEnforcer safeguard_;
  sysinfo::SystemProfile profile_;
  std::vector<llm::ChatMessage> chat_;
};

double Round3(double v) { return std::round(v * 1000.0) / 1000.0; }

}  // namespace

std::unique_ptr<Tuner> MakeRandomSearchTuner(uint64_t seed) {
  return std::make_unique<RandomSearchTuner>(seed);
}

std::unique_ptr<Tuner> MakeGridSearchTuner() {
  return std::make_unique<GridSearchTuner>();
}

std::unique_ptr<Tuner> MakeCostModelTuner(const HardwareProfile& hw,
                                          const WorkloadSpec& workload,
                                          uint64_t seed) {
  return std::make_unique<CostModelTuner>(hw, workload, seed);
}

std::unique_ptr<Tuner> MakeLlmTuner(const HardwareProfile& hw,
                                    const WorkloadSpec& workload,
                                    uint64_t seed) {
  return std::make_unique<LlmTuner>(hw, workload, seed);
}

TournamentReport RunTournament(const TournamentConfig& config) {
  TournamentReport report;
  report.schema_version = bench::kBenchSchemaVersion;
  report.build = bench::BuildStamp();
  report.seed = config.seed;
  report.hardware = config.hw.Label();
  report.workload = config.workload.Describe();
  report.budget = config.budget;

  bench::BenchRunner runner(config.hw, config.seed);

  // One shared defaults baseline: every contender starts from the same
  // trial-0 observation.
  TunerObservation baseline;
  baseline.options = Options();
  baseline.result = runner.Run(config.workload, baseline.options);
  report.default_ops_per_sec = Round3(baseline.result.ops_per_sec);

  struct Contender {
    std::string name;
    std::unique_ptr<Tuner> tuner;
  };
  std::vector<Contender> contenders;
  auto wanted = [&config](const char* name) {
    if (config.contenders.empty()) return true;
    for (const auto& c : config.contenders) {
      if (c == name) return true;
    }
    return false;
  };
  if (wanted("llm")) {
    contenders.push_back(
        {"llm", MakeLlmTuner(config.hw, config.workload, config.seed)});
  }
  if (wanted("cost_model")) {
    contenders.push_back(
        {"cost_model",
         MakeCostModelTuner(config.hw, config.workload, config.seed)});
  }
  if (wanted("grid")) {
    contenders.push_back({"grid", MakeGridSearchTuner()});
  }
  if (wanted("random")) {
    contenders.push_back({"random", MakeRandomSearchTuner(config.seed)});
  }

  for (auto& c : contenders) {
    std::vector<TunerObservation> history;
    history.push_back(baseline);

    TunerRun run;
    run.name = c.name;
    run.trial_ops_per_sec.push_back(Round3(baseline.result.ops_per_sec));

    for (int t = 1; t <= config.budget; t++) {
      TunerObservation obs;
      obs.options = c.tuner->Propose(history);
      obs.result = runner.Run(config.workload, obs.options);
      run.trial_ops_per_sec.push_back(Round3(obs.result.ops_per_sec));
      history.push_back(std::move(obs));
    }

    double best = 0;
    for (size_t i = 0; i < history.size(); i++) {
      best = std::max(best, ObservedOps(history[i]));
      run.best_curve.push_back(Round3(best));
    }
    const size_t best_idx = BestIndex(history);
    run.best_ops_per_sec = Round3(ObservedOps(history[best_idx]));
    run.gain_vs_default =
        report.default_ops_per_sec > 0
            ? Round3(run.best_ops_per_sec / report.default_ops_per_sec)
            : 0;
    run.best_options_ini =
        OptionsSchema::Instance().ToIniText(history[best_idx].options);
    report.runs.push_back(std::move(run));
  }

  // Iterations-to-within-5%-of-best, judged against the tournament-wide
  // best throughput.
  double overall_best = report.default_ops_per_sec;
  for (const auto& r : report.runs) {
    overall_best = std::max(overall_best, r.best_ops_per_sec);
  }
  double winner_ops = 0;
  for (auto& r : report.runs) {
    for (size_t i = 0; i < r.best_curve.size(); i++) {
      if (r.best_curve[i] >= 0.95 * overall_best) {
        r.trials_to_within_5pct = static_cast<int>(i);
        break;
      }
    }
    if (report.winner.empty() || r.best_ops_per_sec > winner_ops) {
      report.winner = r.name;
      winner_ops = r.best_ops_per_sec;
    }
  }
  return report;
}

std::string TournamentReport::ToJson() const {
  json::Object doc;
  doc["kind"] = "bench_tournament";
  doc["schema_version"] = schema_version;
  doc["build"] = build;
  doc["sim_seed"] = static_cast<int64_t>(seed);
  doc["hardware"] = hardware;
  doc["workload"] = workload;
  doc["budget"] = budget;
  doc["default_ops_per_sec"] = default_ops_per_sec;
  doc["winner"] = winner;
  json::Array runs_arr;
  for (const auto& r : runs) {
    json::Object o;
    o["tuner"] = r.name;
    json::Array trials, curve;
    for (double v : r.trial_ops_per_sec) trials.push_back(json::Value(v));
    for (double v : r.best_curve) curve.push_back(json::Value(v));
    o["trial_ops_per_sec"] = std::move(trials);
    o["best_curve"] = std::move(curve);
    o["best_ops_per_sec"] = r.best_ops_per_sec;
    o["gain_vs_default"] = r.gain_vs_default;
    o["trials_to_within_5pct"] = r.trials_to_within_5pct;
    o["best_options_ini"] = r.best_options_ini;
    runs_arr.push_back(json::Value(std::move(o)));
  }
  doc["runs"] = std::move(runs_arr);
  return json::Value(std::move(doc)).Dump(2);
}

OnlineVsOfflineReport RunOnlineVsOffline(const OnlineVsOfflineConfig& config) {
  OnlineVsOfflineReport report;
  report.schema_version = bench::kBenchSchemaVersion;
  report.build = bench::BuildStamp();
  report.seed = config.seed;
  report.hardware = config.hw.Label();
  report.workload = config.workload.Describe();

  bench::BenchRunner runner(config.hw, config.seed);

  // The static field: each contender commits its memory split (and
  // parallelism) for the whole run — what an offline tuner must do.
  // Values are full-size (the runner scales capacities to bench size
  // and debits the footprint at full size, so memory stays scarce).
  struct StaticCandidate {
    const char* name;
    const char* description;
    Options options;
  };
  std::vector<StaticCandidate> candidates;
  candidates.push_back({"defaults", "engine defaults", Options()});
  {
    Options o;  // the write phase's favorite
    o.write_buffer_size = 256ull << 20;
    o.max_write_buffer_number = 4;
    o.max_background_jobs = 4;
    candidates.push_back(
        {"write_tuned", "big memtables, default cache", o});
  }
  {
    Options o;  // the read/scan phases' favorite
    o.block_cache_size = 2ull << 30;
    o.write_buffer_size = 16ull << 20;
    candidates.push_back(
        {"read_tuned", "big block cache, small memtables", o});
  }
  {
    Options o;  // the honest compromise: split memory, keep both small
    o.block_cache_size = 1ull << 30;
    o.write_buffer_size = 128ull << 20;
    o.max_write_buffer_number = 4;
    o.max_background_jobs = 4;
    candidates.push_back(
        {"balanced", "memory split between cache and memtables", o});
  }
  {
    Options o;  // both maxed: the footprint exceeds RAM and pays for it
    o.block_cache_size = 4ull << 30;
    o.write_buffer_size = 256ull << 20;
    o.max_write_buffer_number = 4;
    o.max_background_jobs = 4;
    candidates.push_back(
        {"oversized", "big cache AND big memtables, exceeds RAM", o});
  }

  for (const auto& c : candidates) {
    const bench::BenchResult r = runner.Run(config.workload, c.options);
    report.static_runs.push_back(
        {c.name, c.description, Round3(r.ops_per_sec)});
    if (r.ops_per_sec > report.best_static_ops_per_sec) {
      report.best_static_ops_per_sec = Round3(r.ops_per_sec);
      report.best_static = c.name;
    }
  }

  // The online run: defaults plus a live tuner on the bench hook.
  std::unique_ptr<llm::SimulatedExpertLlm> expert;
  if (config.use_llm) {
    llm::ExpertConfig ec;
    ec.seed = config.seed;
    expert = std::make_unique<llm::SimulatedExpertLlm>(ec);
  }
  OnlineTunerConfig tuner_cfg;
  // The live DB runs bench-scaled capacities, so the tuner's budget is
  // the bench-scale share of what the box leaves after the OS baseline.
  tuner_cfg.memory_budget_bytes =
      (config.hw.memory_bytes - SimEnv::kOsBaselineBytes) /
      bench::kCapacityScale;
  std::unique_ptr<OnlineTuner> tuner;
  lsm::DB* tuner_db = nullptr;
  auto hook = [&](lsm::DB* db, uint64_t) {
    if (db != tuner_db) {
      tuner_db = db;
      tuner = std::make_unique<OnlineTuner>(db, expert.get(), tuner_cfg);
    }
    tuner->Poll();
  };
  const bench::BenchResult online =
      runner.RunWithHook(config.workload, Options(), hook);

  report.online_ops_per_sec = Round3(online.ops_per_sec);
  report.online_gain_vs_best_static =
      report.best_static_ops_per_sec > 0
          ? Round3(report.online_ops_per_sec /
                   report.best_static_ops_per_sec)
          : 0;
  if (tuner != nullptr) {
    report.applied_deltas = tuner->applied_deltas();
    report.rollbacks = tuner->rollbacks();
    report.oscillations = tuner->oscillations();
    report.timeline_json = tuner->TimelineJson();
  }
  return report;
}

std::string OnlineVsOfflineReport::ToJson() const {
  json::Object doc;
  doc["kind"] = "bench_online_vs_offline";
  doc["schema_version"] = schema_version;
  doc["build"] = build;
  doc["sim_seed"] = static_cast<int64_t>(seed);
  doc["hardware"] = hardware;
  doc["workload"] = workload;
  json::Array statics;
  for (const auto& s : static_runs) {
    json::Object o;
    o["name"] = s.name;
    o["description"] = s.description;
    o["ops_per_sec"] = s.ops_per_sec;
    statics.push_back(std::move(o));
  }
  doc["static_runs"] = std::move(statics);
  doc["best_static"] = best_static;
  doc["best_static_ops_per_sec"] = best_static_ops_per_sec;
  doc["online_ops_per_sec"] = online_ops_per_sec;
  doc["online_gain_vs_best_static"] = online_gain_vs_best_static;
  doc["applied_deltas"] = applied_deltas;
  doc["rollbacks"] = rollbacks;
  doc["oscillations"] = oscillations;
  json::Value timeline;
  if (json::Parse(timeline_json, &timeline).ok()) {
    doc["timeline"] = std::move(timeline);
  }
  return json::Value(std::move(doc)).Dump(2);
}

std::string OnlineVsOfflineReport::SummaryTable() const {
  std::string out;
  char buf[256];
  out += "| configuration | ops/sec | note |\n|---|---|---|\n";
  for (const auto& s : static_runs) {
    snprintf(buf, sizeof(buf), "| %s (static) | %.0f | %s%s |\n",
             s.name.c_str(), s.ops_per_sec, s.description.c_str(),
             s.name == best_static ? " — best static" : "");
    out += buf;
  }
  snprintf(buf, sizeof(buf),
           "| **online** | %.0f | %d delta(s) applied live, %d rolled "
           "back — %.2fx vs best static |\n",
           online_ops_per_sec, applied_deltas, rollbacks,
           online_gain_vs_best_static);
  out += buf;
  return out;
}

std::string TournamentReport::SummaryTable() const {
  std::string out;
  char buf[256];
  out += "| tuner | best ops/sec | gain vs default | trials to within "
         "5% of best |\n";
  out += "|---|---|---|---|\n";
  for (const auto& r : runs) {
    snprintf(buf, sizeof(buf), "| %s%s | %.0f | %.2fx | %s |\n",
             r.name.c_str(), r.name == winner ? " **(winner)**" : "",
             r.best_ops_per_sec, r.gain_vs_default,
             r.trials_to_within_5pct < 0
                 ? "never"
                 : std::to_string(r.trials_to_within_5pct).c_str());
    out += buf;
  }
  return out;
}

}  // namespace elmo::tune
