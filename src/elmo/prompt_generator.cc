#include "elmo/prompt_generator.h"

#include "util/string_util.h"

namespace elmo::tune {

namespace {

// A fenced section body, newline-terminated.
void AppendFenced(const std::string& body, std::string* p) {
  *p += "```\n" + body;
  if (!body.empty() && body.back() != '\n') *p += "\n";
  *p += "```\n\n";
}

}  // namespace

std::string PromptGenerator::SystemMessage() {
  return
      "You are an expert storage-systems engineer specializing in "
      "LSM-tree key-value stores (RocksDB-style engines). You tune "
      "configurations for specific hardware and workloads. Always "
      "answer with a short analysis followed by the updated options in "
      "a fenced ```ini code block using key = value lines.";
}

std::string PromptGenerator::Generate(const PromptInputs& in) {
  std::string p;
  p += "## Task\n";
  p += "Tune the key-value store configuration below for maximum "
       "throughput and low tail latency. This is tuning iteration " +
       std::to_string(in.iteration) + ".\n\n";

  p += "## System Information\n";
  p += in.system.ToPromptText();
  p += "\n";

  p += "## Workload\n";
  p += in.workload_description + "\n\n";

  p += "## Current Configuration\n";
  p += "```ini\n" + in.current_options_ini + "```\n\n";

  // The best run so far. Its report carries every piece of evidence
  // once: engine statistics, throughput over time, IO & cache, latency
  // attribution and health.
  if (in.best != nullptr) {
    p += "## Last Benchmark Report\n";
    p += in.best->ToReport();
    p += "\n";
  }

  if (!in.deterioration_note.empty()) {
    p += "## Feedback\n";
    p += in.deterioration_note + "\n\n";
  }

  if (!in.history.empty()) {
    p += "## Tuning History\n";
    for (const auto& line : in.history) {
      p += line + "\n";
    }
    p += "\n";
  }

  p += "## Instructions\n";
  p += "Propose between 3 and 10 option changes with one-line "
       "rationales, then output the updated configuration in a fenced "
       "```ini block.";
  if (!in.locked_options.empty()) {
    p += " Do not modify: ";
    for (size_t i = 0; i < in.locked_options.size(); i++) {
      if (i > 0) p += ", ";
      p += in.locked_options[i];
    }
    p += ".";
  }
  p += "\n";
  return p;
}

std::string PromptGenerator::GenerateLiveDelta(const LiveDeltaInputs& in) {
  std::string p;
  p += "## Task\n";
  p += "The key-value store below is SERVING LIVE TRAFFIC. Its workload "
       "just changed and the current configuration no longer fits. "
       "Propose a small delta — only the runtime-mutable options listed "
       "below can change without a restart.\n\n";

  p += "## Trigger\n";
  p += in.trigger_description + "\n";
  if (!in.recent_samples.empty()) {
    // Name the live mix in db_bench vocabulary: the model's knowledge
    // base is keyed to the standard microbenchmark names, not to raw
    // share numbers.
    const auto& last = in.recent_samples.back();
    const double denom = static_cast<double>(last.ops + last.seeks);
    const double write_share = denom > 0 ? last.writes / denom : 0;
    const char* persona = write_share > 0.5        ? "fillrandom"
                          : write_share > 0.2      ? "readrandomwriterandom"
                                                   : "readrandom";
    p += std::string("The live mix now resembles the ") + persona +
         " microbenchmark.\n";
  }
  p += "\n";

  if (in.memory_budget_bytes > 0) {
    p += "## Memory Budget\n";
    p += "Total memory: " + FormatBytesHuman(in.memory_budget_bytes) +
         " available for memtables plus block cache combined. Proposals "
         "must fit this budget; the runtime shrinks any that do not.\n\n";
  }

  p += "## Runtime-Mutable Options (current values)\n";
  AppendFenced(in.mutable_options, &p);

  if (!in.recent_samples.empty()) {
    p += "## Recent Telemetry\n";
    p += "The engine's last sampled intervals (newest last):\n";
    AppendFenced(bench::TimeSeriesTable(in.recent_samples, 12), &p);
  }

  if (!in.health_evidence.empty()) {
    p += "## Health & Diagnosis Evidence\n";
    AppendFenced(in.health_evidence, &p);
  }

  if (!in.delta_history.empty()) {
    p += "## Applied Deltas So Far\n";
    for (const auto& line : in.delta_history) p += line + "\n";
    p += "\n";
  }

  p += "## Instructions\n";
  p += "Propose 1 to 4 changes FROM THE MUTABLE LIST ONLY, each with a "
       "one-line rationale, then output just the changed options in a "
       "fenced ```ini block using key = value lines. Any other option "
       "will be rejected by the runtime.\n";
  return p;
}

}  // namespace elmo::tune
