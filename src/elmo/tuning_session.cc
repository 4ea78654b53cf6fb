#include "elmo/tuning_session.h"

#include <cstdio>

#include "elmo/active_flagger.h"
#include "elmo/pipeline.h"
#include "elmo/prompt_generator.h"
#include "lsm/options_schema.h"

namespace elmo::tune {

using lsm::Options;
using lsm::OptionsSchema;

TuningSession::TuningSession(bench::BenchRunner* runner,
                             llm::LlmClient* llm,
                             const bench::WorkloadSpec& workload,
                             const TuningConfig& config)
    : runner_(runner), llm_(llm), workload_(workload), cfg_(config) {}

TuningOutcome TuningSession::Run(const Options& initial) {
  TuningOutcome outcome;
  const SafeguardEnforcer safeguard;
  const sysinfo::SystemProfile profile = ProbeSystem(runner_->hardware());

  // Iteration 0: the out-of-box configuration.
  Options best_options = initial;
  outcome.baseline = runner_->Run(workload_, best_options);
  bench::BenchResult best_result = outcome.baseline;

  std::vector<llm::ChatMessage> chat;
  chat.push_back({"system", PromptGenerator::SystemMessage()});

  std::vector<std::string> history;
  {
    char line[128];
    snprintf(line, sizeof(line), "Iteration 0 (defaults): %.0f ops/sec",
             outcome.baseline.ops_per_sec);
    history.push_back(line);
  }

  std::string deterioration_note;

  for (int it = 1; it <= cfg_.max_iterations; it++) {
    IterationRecord rec;
    rec.iteration = it;

    PromptInputs inputs;
    inputs.iteration = it;
    inputs.system = profile;
    inputs.workload_description = workload_.Describe();
    inputs.current_options_ini =
        OptionsSchema::Instance().ToIniText(best_options);
    inputs.best = &best_result;
    inputs.deterioration_note = deterioration_note;
    inputs.history = history;
    for (const auto& name : safeguard.blacklist()) {
      inputs.locked_options.push_back(name);
    }
    rec.prompt = PromptGenerator::Generate(inputs);
    deterioration_note.clear();

    Proposal proposal;
    Status s = Propose(llm_, safeguard, best_options, rec.prompt, &chat,
                       &proposal);
    rec.response = std::move(proposal.response);
    if (!s.ok()) {
      rec.decision_reason = "LLM call failed: " + s.ToString();
      outcome.iterations.push_back(std::move(rec));
      break;
    }
    rec.safeguard = std::move(proposal.report);
    const Options& candidate = proposal.candidate;

    if (rec.safeguard.applied.empty()) {
      // Nothing usable came back (pure hallucination / format break):
      // tell the model and retry next iteration.
      rec.result = best_result;
      rec.decision_reason =
          "no valid changes extracted (" + rec.safeguard.Summary() + ")";
      deterioration_note =
          "Your previous response could not be applied: " +
          rec.safeguard.Summary() +
          ". Respond again with valid options inside a ```ini block.";
      history.push_back("Iteration " + std::to_string(it) +
                        ": rejected (unusable response)");
      outcome.iterations.push_back(std::move(rec));
      continue;
    }
    for (const auto& [k, v] : rec.safeguard.applied) {
      rec.applied_changes[k] = v;
    }

    // Benchmark monitor: quick probe first; a collapsing config is
    // aborted and reported back without paying for a full run.
    const uint64_t probe_ops =
        cfg_.probe_fraction > 0
            ? static_cast<uint64_t>(workload_.num_ops * cfg_.probe_fraction)
            : 0;
    if (probe_ops >= 100) {
      bench::BenchResult probe =
          runner_->RunProbe(workload_, candidate, probe_ops);
      const ProbeVerdict verdict =
          ActiveFlagger::JudgeProbe(best_result, probe);
      if (verdict.abort) {
        rec.early_aborted = true;
        rec.result = probe;
        rec.decision_reason =
            "early monitor abort: " + verdict.reason + "; reverting";
        deterioration_note =
            "The configuration you proposed DECREASED performance "
            "sharply (probe at " +
            std::to_string((long long)probe.ops_per_sec) +
            " ops/sec vs best " +
            std::to_string((long long)best_result.ops_per_sec) +
            ") and was reverted. Please take a different, more "
            "conservative direction.";
        history.push_back("Iteration " + std::to_string(it) +
                          ": reverted (early abort)");
        outcome.iterations.push_back(std::move(rec));
        continue;
      }
    }

    rec.result = runner_->Run(workload_, candidate);
    FlaggerDecision decision = ActiveFlagger::Judge(best_result, rec.result);

    // A faster configuration still has to survive crash certification
    // before it can become the new best: the stress harness crashes and
    // recovers it under FaultInjectionEnv and checks the oracle.
    if (decision.keep && cfg_.certify_ops > 0) {
      const stress::StressReport sr = Certify(candidate, cfg_.certify_ops);
      if (sr.ok) {
        rec.certify_summary = "certified: ok";
      } else {
        decision.keep = false;
        decision.reason =
            "crash certification failed: " + sr.first_divergence;
        rec.certify_summary = "certification FAILED: " +
                              sr.first_divergence;
      }
    }

    rec.kept = decision.keep;
    rec.decision_reason = decision.reason;

    char line[160];
    snprintf(line, sizeof(line), "Iteration %d: %.0f ops/sec (%s)", it,
             rec.result.ops_per_sec, decision.keep ? "kept" : "reverted");
    history.push_back(line);
    if (decision.keep) {
      best_options = candidate;
      best_result = rec.result;
    } else {
      deterioration_note =
          "The previous configuration DECREASED performance (" +
          decision.reason +
          "). It was reverted; the configuration above is the "
          "best-known one.";
    }
    outcome.iterations.push_back(std::move(rec));
  }

  outcome.best_options = best_options;
  outcome.best_result = best_result;
  outcome.final_options_file =
      OptionsSchema::Instance().ToIniText(best_options);
  return outcome;
}

}  // namespace elmo::tune
