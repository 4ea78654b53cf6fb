#include "bench_kit/span_analyzer.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace elmo::bench {

namespace {

using lsm::SpanKind;
using lsm::SpanKindName;
using lsm::SpanNode;
using lsm::SpanTag;
using lsm::SpanTagName;
using lsm::SpanTree;
using lsm::SpanTraceReader;

// Nearest-rank percentile over an ascending-sorted vector.
uint64_t Percentile(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double pos = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(pos + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

struct KindAccum {
  std::vector<uint64_t> durations;
  std::vector<const SpanTree*> trees;
};

// Round a share or mean to 4 decimals, as SpanAttribution::ToJson
// publishes it, so JSON output is deterministic across libm
// implementations.
double Round4(double v) {
  return static_cast<double>(static_cast<int64_t>(v * 10000.0 + 0.5)) /
         10000.0;
}

}  // namespace

json::Object SpanAttribution::ToJson() const {
  json::Object doc;
  doc["trees"] = static_cast<int64_t>(trees);
  doc["slow"] = static_cast<int64_t>(slow);
  doc["sampled"] = static_cast<int64_t>(sampled);
  doc["base_ts_us"] = static_cast<int64_t>(base_ts_us);
  json::Array arr;
  arr.reserve(ops.size());
  for (const SpanOpAttribution& op : ops) {
    json::Object o;
    o["op"] = op.op;
    o["count"] = static_cast<int64_t>(op.count);
    o["p50_us"] = static_cast<int64_t>(op.p50_us);
    o["p99_us"] = static_cast<int64_t>(op.p99_us);
    o["p999_us"] = static_cast<int64_t>(op.p999_us);
    o["max_us"] = static_cast<int64_t>(op.max_us);
    o["mean_us"] = Round4(op.mean_us);
    o["tail_trees"] = static_cast<int64_t>(op.tail_trees);
    json::Array comps;
    comps.reserve(op.tail_components.size());
    for (const auto& c : op.tail_components) {
      json::Object co;
      co["name"] = c.name;
      co["share"] = Round4(c.share);
      co["total_us"] = static_cast<int64_t>(c.total_us);
      comps.emplace_back(std::move(co));
    }
    o["tail_components"] = std::move(comps);
    arr.emplace_back(std::move(o));
  }
  doc["ops"] = std::move(arr);
  return doc;
}

std::string SpanAttribution::ToText() const {
  std::string out;
  char buf[192];
  snprintf(buf, sizeof(buf),
           "span trace: %llu trees (%llu slow, %llu sampled)\n",
           (unsigned long long)trees, (unsigned long long)slow,
           (unsigned long long)sampled);
  out += buf;
  if (ops.empty()) return out;
  snprintf(buf, sizeof(buf), "%-12s %8s %8s %8s %8s %8s\n", "op", "count",
           "p50_us", "p99_us", "p999_us", "max_us");
  out += buf;
  for (const SpanOpAttribution& op : ops) {
    snprintf(buf, sizeof(buf), "%-12s %8llu %8llu %8llu %8llu %8llu\n",
             op.op.c_str(), (unsigned long long)op.count,
             (unsigned long long)op.p50_us, (unsigned long long)op.p99_us,
             (unsigned long long)op.p999_us, (unsigned long long)op.max_us);
    out += buf;
    for (const auto& c : op.tail_components) {
      snprintf(buf, sizeof(buf), "    p99 tail: %-16s %5.1f%% (%llu us)\n",
               c.name.c_str(), c.share * 100.0,
               (unsigned long long)c.total_us);
      out += buf;
    }
  }
  return out;
}

Status AnalyzeSpanTrace(Env* env, const std::string& path,
                        SpanAttribution* out) {
  *out = SpanAttribution{};
  SpanTraceReader reader(env);
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  out->base_ts_us = reader.base_ts_us();

  // Keep every tree in memory: slow-op traces are sparse by design
  // (threshold + 1-in-N sampling), not full op logs.
  std::vector<SpanTree> all;
  while (true) {
    SpanTree tree;
    bool eof = false;
    s = reader.Next(&tree, &eof);
    if (!s.ok()) return s;
    if (eof) break;
    all.push_back(std::move(tree));
  }
  out->trees = all.size();

  // Group by root kind, ordered by kind value for stable output.
  std::map<uint8_t, KindAccum> by_kind;
  for (const SpanTree& t : all) {
    if (t.flags & lsm::kSpanTreeSlow) out->slow++;
    if (t.flags & lsm::kSpanTreeSampled) out->sampled++;
    KindAccum& acc = by_kind[static_cast<uint8_t>(t.root().kind)];
    acc.durations.push_back(t.root().duration_us);
    acc.trees.push_back(&t);
  }

  for (auto& [kind, acc] : by_kind) {
    SpanOpAttribution op;
    op.op = SpanKindName(static_cast<SpanKind>(kind));
    op.count = acc.durations.size();
    std::sort(acc.durations.begin(), acc.durations.end());
    op.p50_us = Percentile(acc.durations, 50.0);
    op.p99_us = Percentile(acc.durations, 99.0);
    op.p999_us = Percentile(acc.durations, 99.9);
    op.max_us = acc.durations.back();
    uint64_t sum = 0;
    for (uint64_t d : acc.durations) sum += d;
    op.mean_us = static_cast<double>(sum) /
                 static_cast<double>(acc.durations.size());

    // Tail decomposition: self-time per child kind (plus root self)
    // across every tree whose root is at or above the p99 cut. Shares
    // are fractions of the summed tail root time, so they add to ~1
    // (exactly 1 when child intervals nest inside the root).
    uint64_t tail_root_us = 0;
    std::map<uint8_t, uint64_t> comp;  // child kind -> summed self us
    uint64_t self_us = 0;
    for (const SpanTree* t : acc.trees) {
      if (t->root().duration_us < op.p99_us) continue;
      op.tail_trees++;
      tail_root_us += t->root().duration_us;
      self_us += t->SelfDuration(0);
      for (size_t i = 1; i < t->spans.size(); i++) {
        comp[static_cast<uint8_t>(t->spans[i].kind)] +=
            t->SelfDuration(i);
      }
    }
    if (tail_root_us > 0) {
      for (const auto& [child_kind, us] : comp) {
        SpanOpAttribution::Component c;
        c.name = SpanKindName(static_cast<SpanKind>(child_kind));
        c.total_us = us;
        c.share = static_cast<double>(us) /
                  static_cast<double>(tail_root_us);
        op.tail_components.push_back(std::move(c));
      }
      SpanOpAttribution::Component self;
      self.name = "self";
      self.total_us = self_us;
      self.share = static_cast<double>(self_us) /
                   static_cast<double>(tail_root_us);
      op.tail_components.push_back(std::move(self));
      // Largest share first; ties broken by name for determinism.
      std::sort(op.tail_components.begin(), op.tail_components.end(),
                [](const SpanOpAttribution::Component& a,
                   const SpanOpAttribution::Component& b) {
                  if (a.total_us != b.total_us) {
                    return a.total_us > b.total_us;
                  }
                  return a.name < b.name;
                });
    }
    out->ops.push_back(std::move(op));
  }
  return Status::OK();
}

Status ExportChromeTrace(Env* env, const std::string& path,
                         std::string* json_out) {
  json_out->clear();
  SpanTraceReader reader(env);
  Status s = reader.Open(path);
  if (!s.ok()) return s;

  json::Array events;
  auto add_process_name = [&events](int pid, const char* name) {
    json::Object m;
    m["name"] = std::string("process_name");
    m["ph"] = std::string("M");
    m["pid"] = pid;
    m["tid"] = 0;
    json::Object args;
    args["name"] = std::string(name);
    m["args"] = std::move(args);
    events.emplace_back(std::move(m));
  };
  add_process_name(1, "foreground ops");
  add_process_name(2, "background jobs");

  while (true) {
    SpanTree tree;
    bool eof = false;
    s = reader.Next(&tree, &eof);
    if (!s.ok()) return s;
    if (eof) break;

    const SpanKind root_kind = tree.root().kind;
    const int pid = (root_kind == SpanKind::kFlush ||
                     root_kind == SpanKind::kCompaction)
                        ? 2
                        : 1;
    for (size_t i = 0; i < tree.spans.size(); i++) {
      const SpanNode& n = tree.spans[i];
      json::Object e;
      e["name"] = std::string(SpanKindName(n.kind));
      e["ph"] = std::string("X");
      e["ts"] = static_cast<int64_t>(n.start_us);
      e["dur"] = static_cast<int64_t>(n.duration_us);
      e["pid"] = pid;
      e["tid"] = static_cast<int64_t>(tree.thread_id);
      json::Object args;
      for (const auto& [tag, value] : n.annotations) {
        args[SpanTagName(tag)] = static_cast<int64_t>(value);
      }
      if (i == 0) {
        args["slow"] = (tree.flags & lsm::kSpanTreeSlow) != 0;
        args["sampled"] = (tree.flags & lsm::kSpanTreeSampled) != 0;
      }
      e["args"] = std::move(args);
      events.emplace_back(std::move(e));
    }
  }

  json::Object doc;
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = std::string("ms");
  *json_out = json::Value(std::move(doc)).Dump();
  return Status::OK();
}

}  // namespace elmo::bench
