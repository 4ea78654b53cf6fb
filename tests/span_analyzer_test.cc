// Latency-attribution analyzer and Chrome trace-event exporter
// (bench_kit/span_analyzer.h) on a hand-planted tail-latency trace with
// known percentiles and component shares, plus golden prompt-text
// output and Perfetto-export sanity checks.
#include <gtest/gtest.h>

#include <string>

#include "bench_kit/span_analyzer.h"
#include "env/mem_env.h"
#include "lsm/span.h"
#include "util/json.h"

namespace elmo::bench {
namespace {

using lsm::GetSpanCollector;
using lsm::SpanCollector;
using lsm::SpanKind;
using lsm::SpanTraceOptions;
using lsm::SpanTracer;

// Emits a root-only tree of `kind` with the given duration.
void PlantLeafTree(SpanTracer* tracer, SpanKind kind, uint64_t start_us,
                   uint64_t duration_us) {
  SpanCollector* c = GetSpanCollector();
  const size_t h = c->OpenRoot(kind, start_us, tracer);
  c->Close(h, start_us + duration_us);
}

// Writes the planted tail-latency trace to /planted on `env`:
//   write: 10 fast root-only trees (100us) + 1 slow tree (10000us) whose
//          time splits wal_sync 9000 / wal_append 500 / self 500
//   get:   5 trees (200us) with an sst_probe child (150us) each
//   flush: 1 tree (5000us) with a table_build child (4500us)
// Expected nearest-rank percentiles and p99 tail shares are asserted in
// the tests below.
void PlantTrace(MemEnv* env) {
  SpanTracer tracer(env);
  SpanTraceOptions opts;
  opts.slow_op_threshold_us = 0;  // capture everything as "slow"
  opts.sample_every = 0;
  ASSERT_TRUE(tracer.Start("/planted", opts, /*base_ts_us=*/1000).ok());
  SpanCollector* c = GetSpanCollector();

  uint64_t t = 0;
  for (int i = 0; i < 10; i++) {
    PlantLeafTree(&tracer, SpanKind::kWrite, t, 100);
    t += 1000;
  }
  {
    const size_t root = c->OpenRoot(SpanKind::kWrite, t, &tracer);
    const size_t sync = c->OpenChild(SpanKind::kWalSync, t + 100);
    c->Close(sync, t + 9100);  // 9000us
    const size_t append = c->OpenChild(SpanKind::kWalAppend, t + 9200);
    c->Close(append, t + 9700);  // 500us
    c->Close(root, t + 10000);   // self = 10000 - 9500 = 500us
    t += 20000;
  }
  for (int i = 0; i < 5; i++) {
    const size_t root = c->OpenRoot(SpanKind::kGet, t, &tracer);
    const size_t probe = c->OpenChild(SpanKind::kSstProbe, t + 25);
    c->Close(probe, t + 175);  // 150us
    c->Close(root, t + 200);   // self = 50us
    t += 1000;
  }
  {
    const size_t root = c->OpenRoot(SpanKind::kFlush, t, &tracer);
    const size_t build = c->OpenChild(SpanKind::kTableBuild, t + 100);
    c->Close(build, t + 4600);  // 4500us
    c->Close(root, t + 5000);   // self = 500us
  }
  ASSERT_TRUE(tracer.Stop(nullptr).ok());
}

const SpanOpAttribution* FindOp(const SpanAttribution& attr,
                                const std::string& name) {
  for (const SpanOpAttribution& op : attr.ops) {
    if (op.op == name) return &op;
  }
  return nullptr;
}

TEST(SpanAnalyzerTest, AttributesPlantedTailLatency) {
  MemEnv env;
  PlantTrace(&env);

  SpanAttribution attr;
  ASSERT_TRUE(AnalyzeSpanTrace(&env, "/planted", &attr).ok());
  EXPECT_EQ(attr.trees, 17u);
  EXPECT_EQ(attr.slow, 17u);  // threshold 0: everything is slow
  EXPECT_EQ(attr.sampled, 0u);
  EXPECT_EQ(attr.base_ts_us, 1000u);
  // Ops ordered by kind value: write(1), get(2), flush(5).
  ASSERT_EQ(attr.ops.size(), 3u);
  EXPECT_EQ(attr.ops[0].op, "write");
  EXPECT_EQ(attr.ops[1].op, "get");
  EXPECT_EQ(attr.ops[2].op, "flush");

  const SpanOpAttribution* write = FindOp(attr, "write");
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->count, 11u);
  EXPECT_EQ(write->p50_us, 100u);
  EXPECT_EQ(write->p99_us, 10000u);
  EXPECT_EQ(write->p999_us, 10000u);
  EXPECT_EQ(write->max_us, 10000u);
  EXPECT_NEAR(write->mean_us, 11000.0 / 11, 1e-9);
  EXPECT_EQ(write->tail_trees, 1u);
  // Largest component first; the 500us tie breaks by name ("self" <
  // "wal_append").
  ASSERT_EQ(write->tail_components.size(), 3u);
  EXPECT_EQ(write->tail_components[0].name, "wal_sync");
  EXPECT_EQ(write->tail_components[0].total_us, 9000u);
  EXPECT_NEAR(write->tail_components[0].share, 0.90, 1e-9);
  EXPECT_EQ(write->tail_components[1].name, "self");
  EXPECT_EQ(write->tail_components[1].total_us, 500u);
  EXPECT_NEAR(write->tail_components[1].share, 0.05, 1e-9);
  EXPECT_EQ(write->tail_components[2].name, "wal_append");
  EXPECT_EQ(write->tail_components[2].total_us, 500u);
  EXPECT_NEAR(write->tail_components[2].share, 0.05, 1e-9);

  const SpanOpAttribution* get = FindOp(attr, "get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->count, 5u);
  EXPECT_EQ(get->p50_us, 200u);
  EXPECT_EQ(get->p99_us, 200u);
  EXPECT_EQ(get->p999_us, 200u);
  // Every tree sits at the p99 cut, so the whole sample is the tail.
  EXPECT_EQ(get->tail_trees, 5u);
  ASSERT_EQ(get->tail_components.size(), 2u);
  EXPECT_EQ(get->tail_components[0].name, "sst_probe");
  EXPECT_EQ(get->tail_components[0].total_us, 750u);
  EXPECT_NEAR(get->tail_components[0].share, 0.75, 1e-9);
  EXPECT_EQ(get->tail_components[1].name, "self");
  EXPECT_NEAR(get->tail_components[1].share, 0.25, 1e-9);

  const SpanOpAttribution* flush = FindOp(attr, "flush");
  ASSERT_NE(flush, nullptr);
  EXPECT_EQ(flush->count, 1u);
  EXPECT_EQ(flush->p99_us, 5000u);
  EXPECT_EQ(flush->tail_trees, 1u);
  ASSERT_EQ(flush->tail_components.size(), 2u);
  EXPECT_EQ(flush->tail_components[0].name, "table_build");
  EXPECT_NEAR(flush->tail_components[0].share, 0.90, 1e-9);
  EXPECT_EQ(flush->tail_components[1].name, "self");
  EXPECT_NEAR(flush->tail_components[1].share, 0.10, 1e-9);

  // The decomposition is exhaustive: shares sum to ~100% per op.
  for (const SpanOpAttribution& op : attr.ops) {
    double sum = 0;
    for (const auto& c : op.tail_components) sum += c.share;
    EXPECT_NEAR(sum, 1.0, 1e-9) << op.op;
  }
}

TEST(SpanAnalyzerTest, GoldenTextOutput) {
  MemEnv env;
  PlantTrace(&env);
  SpanAttribution attr;
  ASSERT_TRUE(AnalyzeSpanTrace(&env, "/planted", &attr).ok());

  const std::string text = attr.ToText();
  EXPECT_NE(text.find("span trace: 17 trees (17 slow, 0 sampled)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("p99 tail: wal_sync          90.0% (9000 us)"),
            std::string::npos)
      << text;

  // Analysis is a pure function of the trace bytes.
  SpanAttribution again;
  ASSERT_TRUE(AnalyzeSpanTrace(&env, "/planted", &again).ok());
  EXPECT_EQ(json::Value(attr.ToJson()).Dump(2),
            json::Value(again.ToJson()).Dump(2));
}

TEST(SpanAnalyzerTest, JsonShapeCarriesSharesAndCounts) {
  MemEnv env;
  PlantTrace(&env);
  SpanAttribution attr;
  ASSERT_TRUE(AnalyzeSpanTrace(&env, "/planted", &attr).ok());

  const json::Value doc(attr.ToJson());
  const json::Value* trees = doc.Find("trees");
  ASSERT_NE(trees, nullptr);
  EXPECT_EQ(trees->as_int(), 17);
  const json::Value* ops = doc.Find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_TRUE(ops->is_array());
  ASSERT_EQ(ops->as_array().size(), 3u);
  const json::Value& write = ops->as_array()[0];
  ASSERT_TRUE(write.is_object());
  EXPECT_EQ(write.Find("op")->as_string(), "write");
  EXPECT_EQ(write.Find("p99_us")->as_int(), 10000);
  const json::Value* comps = write.Find("tail_components");
  ASSERT_NE(comps, nullptr);
  ASSERT_EQ(comps->as_array().size(), 3u);
  EXPECT_EQ(comps->as_array()[0].Find("name")->as_string(), "wal_sync");
  EXPECT_NEAR(comps->as_array()[0].Find("share")->as_double(), 0.9, 1e-6);
}

TEST(SpanAnalyzerTest, EmptyTraceYieldsNoOps) {
  MemEnv env;
  SpanTracer tracer(&env);
  ASSERT_TRUE(tracer.Start("/empty", {}, 0).ok());
  ASSERT_TRUE(tracer.Stop(nullptr).ok());

  SpanAttribution attr;
  ASSERT_TRUE(AnalyzeSpanTrace(&env, "/empty", &attr).ok());
  EXPECT_EQ(attr.trees, 0u);
  EXPECT_TRUE(attr.ops.empty());

  EXPECT_TRUE(AnalyzeSpanTrace(&env, "/missing", &attr).IsNotFound() ||
              AnalyzeSpanTrace(&env, "/missing", &attr).IsIOError());
}

TEST(SpanAnalyzerTest, ChromeExportSeparatesForegroundAndBackground) {
  MemEnv env;
  PlantTrace(&env);
  std::string json_text;
  ASSERT_TRUE(ExportChromeTrace(&env, "/planted", &json_text).ok());

  json::Value doc;
  ASSERT_TRUE(json::Parse(json_text, &doc).ok());
  const json::Value* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int meta = 0, foreground = 0, background = 0;
  bool flush_on_bg = true, write_on_fg = true;
  for (const json::Value& e : events->as_array()) {
    const std::string ph = e.Find("ph")->as_string();
    const int64_t pid = e.Find("pid")->as_int();
    if (ph == "M") {
      meta++;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const std::string name = e.Find("name")->as_string();
    if (pid == 1) foreground++;
    if (pid == 2) background++;
    if ((name == "flush" || name == "table_build") && pid != 2) {
      flush_on_bg = false;
    }
    if (name == "write" && pid != 1) write_on_fg = false;
  }
  EXPECT_EQ(meta, 2);  // the two process_name records
  // 11 write trees (13 spans) + 5 get trees (10 spans) = 23 foreground;
  // flush tree = 2 background spans.
  EXPECT_EQ(foreground, 23);
  EXPECT_EQ(background, 2);
  EXPECT_TRUE(flush_on_bg);
  EXPECT_TRUE(write_on_fg);
}

}  // namespace
}  // namespace elmo::bench
