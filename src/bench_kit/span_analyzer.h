// Offline span-trace analyzer: latency attribution + Perfetto export.
//
// Replays a slow-op span trace produced by DB::StartSpanTrace
// (lsm/span.h) and answers "where did the tail latency go": for each
// root op kind it computes duration percentiles over the captured trees
// and decomposes the tail (trees at or above the p99 cut) into
// per-child-phase self-time shares plus the root's own self time. The
// shares are fractions of total tail root duration, so they sum to
// ~100% by construction.
//
// ExportChromeTrace renders the same trace as Chrome trace-event JSON
// (chrome://tracing or https://ui.perfetto.dev): foreground ops on
// pid 1 (one track per engine thread), background flush/compaction
// trees on pid 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/span.h"
#include "util/json.h"
#include "util/status.h"

namespace elmo::bench {

// Attribution for one root-span kind (write/get/iter_seek/iter_next/
// flush/compaction).
struct SpanOpAttribution {
  std::string op;  // SpanKindName of the root
  uint64_t count = 0;

  // Root-duration percentiles over every captured tree of this kind.
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  uint64_t max_us = 0;
  double mean_us = 0;

  // Tail decomposition over trees with root duration >= p99_us: each
  // component's share of the summed tail root time, in [0,1].
  struct Component {
    std::string name;  // child SpanKindName, or "self" for root self-time
    double share = 0;
    uint64_t total_us = 0;  // summed micros across the tail trees
  };
  std::vector<Component> tail_components;
  uint64_t tail_trees = 0;  // trees in the tail sample
};

struct SpanAttribution {
  uint64_t trees = 0;    // trees read from the trace
  uint64_t slow = 0;     // flagged kSpanTreeSlow
  uint64_t sampled = 0;  // flagged kSpanTreeSampled
  uint64_t base_ts_us = 0;

  std::vector<SpanOpAttribution> ops;  // one entry per root kind seen

  json::Object ToJson() const;
  // Human-readable attribution tables (elmo_dump / bench report).
  std::string ToText() const;
};

// Read the span trace at `path` through `env` and attribute. Fails with
// Corruption on a damaged trace; an empty trace yields empty `ops`.
Status AnalyzeSpanTrace(Env* env, const std::string& path,
                        SpanAttribution* out);

// Render the span trace as Chrome trace-event JSON. Foreground root
// kinds map to pid 1 / tid = engine thread id; background jobs (flush,
// compaction) to pid 2. Child spans become nested "X" events.
Status ExportChromeTrace(Env* env, const std::string& path,
                         std::string* json_out);

}  // namespace elmo::bench
