// Offline IO-trace analyzer. Replays a trace produced by
// DB::StartIOTrace (env/io_trace.h) and aggregates per-file-kind and
// per-context byte/op/latency breakdowns plus a time-bucketed heatmap of
// bytes moved per kind — the "where do the device bytes go" evidence the
// tuning prompt consumes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "env/io_trace.h"
#include "util/json.h"
#include "util/status.h"

namespace elmo::bench {

constexpr int kNumIOFileKinds = static_cast<int>(IOFileKind::kOther) + 1;
constexpr int kNumIOContexts = static_cast<int>(IOContextTag::kRecovery) + 1;
constexpr int kNumIOOps = static_cast<int>(IOOp::kRangeSync) + 1;

struct IOBreakdown {
  uint64_t ops = 0;
  uint64_t bytes = 0;
  uint64_t latency_us = 0;  // summed engine-clock latency
};

struct IOAnalysis {
  uint64_t records = 0;
  uint64_t base_ts_us = 0;
  uint64_t first_ts_us = 0;
  uint64_t last_ts_us = 0;

  std::array<IOBreakdown, kNumIOFileKinds> by_kind;
  std::array<IOBreakdown, kNumIOContexts> by_context;
  std::array<IOBreakdown, kNumIOOps> by_op;

  // Heatmap: bytes moved per [bucket][kind] over the trace's time span.
  uint64_t bucket_us = 0;
  std::vector<std::array<uint64_t, kNumIOFileKinds>> heatmap;

  uint64_t total_bytes() const;

  json::Object ToJson() const;
  // Human-readable tables (elmo_dump / bench report).
  std::string ToText() const;
  // Compact per-kind + per-context summary for the tuning prompt.
  std::string ToPromptText() const;
};

// Read the trace at `path` through `env` and aggregate. The heatmap gets
// at most `heatmap_buckets` buckets (0 disables it). Fails with
// Corruption on a damaged trace.
Status AnalyzeIOTrace(Env* env, const std::string& path,
                      size_t heatmap_buckets, IOAnalysis* out);

}  // namespace elmo::bench
