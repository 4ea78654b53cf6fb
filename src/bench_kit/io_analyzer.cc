#include "bench_kit/io_analyzer.h"

#include <algorithm>
#include <cstdio>

namespace elmo::bench {

namespace {

json::Object BreakdownToJson(const IOBreakdown& b) {
  json::Object o;
  o["ops"] = static_cast<int64_t>(b.ops);
  o["bytes"] = static_cast<int64_t>(b.bytes);
  o["latency_us"] = static_cast<int64_t>(b.latency_us);
  return o;
}

void AppendBreakdownLine(std::string* out, const char* name,
                         const IOBreakdown& b) {
  if (b.ops == 0) return;
  char buf[160];
  const double avg_us =
      static_cast<double>(b.latency_us) / static_cast<double>(b.ops);
  snprintf(buf, sizeof(buf),
           "  %-16s ops %10llu  bytes %12llu  avg latency %8.1f us\n", name,
           (unsigned long long)b.ops, (unsigned long long)b.bytes, avg_us);
  *out += buf;
}

}  // namespace

uint64_t IOAnalysis::total_bytes() const {
  uint64_t total = 0;
  for (const IOBreakdown& b : by_kind) total += b.bytes;
  return total;
}

json::Object IOAnalysis::ToJson() const {
  json::Object doc;
  doc["records"] = static_cast<int64_t>(records);
  doc["base_ts_us"] = static_cast<int64_t>(base_ts_us);
  doc["first_ts_us"] = static_cast<int64_t>(first_ts_us);
  doc["last_ts_us"] = static_cast<int64_t>(last_ts_us);
  doc["total_bytes"] = static_cast<int64_t>(total_bytes());

  json::Object kinds;
  for (int k = 0; k < kNumIOFileKinds; k++) {
    if (by_kind[k].ops == 0) continue;
    kinds[IOFileKindName(static_cast<IOFileKind>(k))] =
        BreakdownToJson(by_kind[k]);
  }
  doc["by_kind"] = std::move(kinds);

  json::Object contexts;
  for (int c = 0; c < kNumIOContexts; c++) {
    if (by_context[c].ops == 0) continue;
    contexts[IOContextTagName(static_cast<IOContextTag>(c))] =
        BreakdownToJson(by_context[c]);
  }
  doc["by_context"] = std::move(contexts);

  json::Object ops;
  for (int o = 0; o < kNumIOOps; o++) {
    if (by_op[o].ops == 0) continue;
    ops[IOOpName(static_cast<IOOp>(o))] = BreakdownToJson(by_op[o]);
  }
  doc["by_op"] = std::move(ops);

  doc["heatmap_bucket_us"] = static_cast<int64_t>(bucket_us);
  json::Array rows;
  rows.reserve(heatmap.size());
  for (const auto& row : heatmap) {
    json::Object cell;
    for (int k = 0; k < kNumIOFileKinds; k++) {
      if (row[k] == 0) continue;
      cell[IOFileKindName(static_cast<IOFileKind>(k))] =
          static_cast<int64_t>(row[k]);
    }
    rows.emplace_back(std::move(cell));
  }
  doc["heatmap_bytes"] = std::move(rows);
  return doc;
}

std::string IOAnalysis::ToText() const {
  std::string out;
  char buf[160];
  snprintf(buf, sizeof(buf),
           "io trace: %llu records, %llu bytes moved, span %.3f s\n",
           (unsigned long long)records, (unsigned long long)total_bytes(),
           static_cast<double>(last_ts_us - first_ts_us) / 1e6);
  out += buf;

  out += "by file kind:\n";
  for (int k = 0; k < kNumIOFileKinds; k++) {
    AppendBreakdownLine(&out, IOFileKindName(static_cast<IOFileKind>(k)),
                        by_kind[k]);
  }
  out += "by context:\n";
  for (int c = 0; c < kNumIOContexts; c++) {
    AppendBreakdownLine(&out, IOContextTagName(static_cast<IOContextTag>(c)),
                        by_context[c]);
  }
  out += "by op:\n";
  for (int o = 0; o < kNumIOOps; o++) {
    AppendBreakdownLine(&out, IOOpName(static_cast<IOOp>(o)), by_op[o]);
  }

  if (!heatmap.empty()) {
    snprintf(buf, sizeof(buf), "heatmap (%zu buckets x %llu us, bytes):\n",
             heatmap.size(), (unsigned long long)bucket_us);
    out += buf;
    for (size_t i = 0; i < heatmap.size(); i++) {
      uint64_t row_total = 0;
      for (int k = 0; k < kNumIOFileKinds; k++) row_total += heatmap[i][k];
      snprintf(buf, sizeof(buf),
               "  [%3zu] total %10llu  wal %10llu  sst-data %10llu"
               "  sst-meta %10llu\n",
               i, (unsigned long long)row_total,
               (unsigned long long)heatmap[i][static_cast<int>(
                   IOFileKind::kWal)],
               (unsigned long long)heatmap[i][static_cast<int>(
                   IOFileKind::kSstData)],
               (unsigned long long)heatmap[i][static_cast<int>(
                   IOFileKind::kSstIndexFilter)]);
      out += buf;
    }
  }
  return out;
}

std::string IOAnalysis::ToPromptText() const {
  std::string out;
  char buf[160];
  const uint64_t total = total_bytes();
  out += "Per-kind IO (from the engine's IO trace):\n";
  for (int k = 0; k < kNumIOFileKinds; k++) {
    const IOBreakdown& b = by_kind[k];
    if (b.ops == 0) continue;
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(b.bytes) / total : 0.0;
    snprintf(buf, sizeof(buf), "- %s: %llu ops, %llu bytes (%.1f%%)\n",
             IOFileKindName(static_cast<IOFileKind>(k)),
             (unsigned long long)b.ops, (unsigned long long)b.bytes, pct);
    out += buf;
  }
  out += "Per-context IO attribution:\n";
  for (int c = 0; c < kNumIOContexts; c++) {
    const IOBreakdown& b = by_context[c];
    if (b.ops == 0) continue;
    snprintf(buf, sizeof(buf), "- %s: %llu ops, %llu bytes\n",
             IOContextTagName(static_cast<IOContextTag>(c)),
             (unsigned long long)b.ops, (unsigned long long)b.bytes);
    out += buf;
  }
  return out;
}

Status AnalyzeIOTrace(Env* env, const std::string& path,
                      size_t heatmap_buckets, IOAnalysis* out) {
  *out = IOAnalysis();
  IOTraceReader reader(env);
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  out->base_ts_us = reader.base_ts_us();

  // Keep (ts, kind, len) per record so the heatmap can be bucketed once
  // the span is known; bench-scale traces fit comfortably in memory.
  struct Sample {
    uint64_t ts_us;
    uint8_t kind;
    uint64_t len;
  };
  std::vector<Sample> samples;

  IOTraceRecord rec;
  bool eof = false;
  while (true) {
    s = reader.Next(&rec, &eof);
    if (!s.ok()) return s;
    if (eof) break;
    const int kind = static_cast<int>(rec.kind);
    const int ctx = static_cast<int>(rec.context);
    const int op = static_cast<int>(rec.op);
    out->by_kind[kind].ops++;
    out->by_kind[kind].bytes += rec.len;
    out->by_kind[kind].latency_us += rec.latency_us;
    out->by_context[ctx].ops++;
    out->by_context[ctx].bytes += rec.len;
    out->by_context[ctx].latency_us += rec.latency_us;
    out->by_op[op].ops++;
    out->by_op[op].bytes += rec.len;
    out->by_op[op].latency_us += rec.latency_us;
    if (out->records == 0) out->first_ts_us = rec.ts_us;
    out->first_ts_us = std::min(out->first_ts_us, rec.ts_us);
    out->last_ts_us = std::max(out->last_ts_us, rec.ts_us);
    out->records++;
    if (heatmap_buckets > 0) {
      samples.push_back(
          {rec.ts_us, static_cast<uint8_t>(kind), rec.len});
    }
  }

  if (heatmap_buckets > 0 && !samples.empty()) {
    const uint64_t span = out->last_ts_us - out->first_ts_us + 1;
    const uint64_t bucket_us =
        std::max<uint64_t>(1, (span + heatmap_buckets - 1) / heatmap_buckets);
    const size_t buckets =
        static_cast<size_t>((span + bucket_us - 1) / bucket_us);
    out->bucket_us = bucket_us;
    out->heatmap.assign(buckets, {});
    for (const Sample& sm : samples) {
      const size_t b =
          static_cast<size_t>((sm.ts_us - out->first_ts_us) / bucket_us);
      out->heatmap[b][sm.kind] += sm.len;
    }
  }
  return Status::OK();
}

}  // namespace elmo::bench
