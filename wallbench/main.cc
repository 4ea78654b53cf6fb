// wallbench: wall-clock benchmark of the elmo engine and its tuning
// loop. Usually started through run.py, which builds it first:
//
//   wallbench --workload fill|tune --seed N --seconds S --trace 0|1
//             [--start-ns T] [--setup-only] [--setup-samples S1,S2,...]
//             [--spans PATH] [--source ID]
//   wallbench --selftest
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the line before it holds the run's facts
// (compiler, build type, nproc, source id, per-round figures). With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. A wrong or failed operation makes the exit code 1 and
// names the first bad key on stderr.
//
// --start-ns is when the caller started this process, on the
// CLOCK_MONOTONIC clock, so the set-up time includes process start.
// With --setup-only the process stops after the set-up and prints
// {"setup_s": S}; --setup-samples passes such figures from earlier
// processes, and setup_s is the median of them and this run's own.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace wallbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},   {"put_p50_us", "us"},
    {"put_p99_us", "us"},     {"get_p50_us", "us"},   {"get_p99_us", "us"},
    {"write_amp", "ratio"},   {"space_amp", "ratio"}, {"peak_rss_mb", "MB"},
    {"tune_gain", "ratio"},
};

const MetricSpec kPerLayer[] = {
    {"util.crc32c_ns_per_kb", "ns"},
    {"lsm.wal_add_record_ns", "ns"},
    {"lsm.memtable_add_ns", "ns"},
    {"lsm.memtable_get_ns", "ns"},
    {"lsm.flush_count", "count"},
    {"lsm.compaction_count", "count"},
    {"lsm.compaction_bytes_written", "MiB"},
    {"lsm.stall_us", "us"},
    {"lsm.stop_count", "count"},
    {"lsm.put_wait_s", "s"},
    {"lsm.drain_s", "s"},
    {"table.cache_hit_rate", "ratio"},
    {"table.cache_lookup_ns", "ns"},
    {"table.bloom_probe_ns", "ns"},
    {"table.block_seek_ns", "ns"},
    {"table.builder_add_ns", "ns"},
    {"env.wal_bytes_per_user_byte", "ratio"},
    {"env.sst_write_bytes_per_user_byte", "ratio"},
    {"env.sst_reads_per_get", "count"},
    {"env.sst_read_bytes_per_get", "B"},
    {"llm.complete_ms", "ms"},
    {"bench_kit.run_s", "s"},
    {"bench_kit.wall_us_per_virtual_op", "us"},
    {"elmo.self_share", "ratio"},
    {"span.put_self_ns", "ns"},
    {"span.get_self_ns", "ns"},
    {"span.wal_append_ns", "ns"},
    {"span.sst_append_ns", "ns"},
    {"span.sst_read_ns", "ns"},
    {"span.count", "count"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload fill|tune --seed N --seconds S "
               "--trace 0|1 [--start-ns T] [--setup-only]\n"
               "                 [--setup-samples S1,S2,...] [--spans PATH] "
               "[--source ID]\n"
               "       wallbench --selftest\n");
  return 2;
}

// Reads data back on the engine with the configuration the tuning loop
// picks. It fails while the engine defect described in README.md
// ("Known engine defect") is open.
int SelfTest() {
  const std::string tuned = CheckTunedConfig(7);
  std::printf("tuned configuration reads back on the engine: %s\n",
              tuned.empty() ? "yes" : ("NO, " + tuned).c_str());
  std::printf("selftest %s\n", tuned.empty() ? "passed" : "FAILED");
  return tuned.empty() ? 0 : 1;
}

// Keeps the run off the lowest-numbered CPU it may use, leaving that one
// to the rest of the system, when at least three are left for the client
// and the engine's background threads. Threads started later inherit
// the mask.
void PinToCpus() {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0 || CPU_COUNT(&cpus) < 4) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &cpus)) {
      CPU_CLR(cpu, &cpus);
      break;
    }
  }
  sched_setaffinity(0, sizeof(cpus), &cpus);
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ",") + Number(x);
  return s;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  RunConfig cfg;
  cfg.start_ns = NowNs();
  PinToCpus();
  // One malloc arena: peak RSS then follows the live data rather than
  // how many per-thread arenas the engine's background threads touched,
  // which made it vary by 20% between runs.
  mallopt(M_ARENA_MAX, 1);
  std::string workload, spans_path, source = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  std::vector<double> setup_samples;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--setup-only") {
      cfg.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(v);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      trace = std::strcmp(v, "1") == 0 ? 1 : std::strcmp(v, "0") == 0 ? 0 : -1;
    } else if (arg == "--start-ns") {
      cfg.start_ns = std::strtoll(v, nullptr, 10);
    } else if (arg == "--setup-samples") {
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        setup_samples.push_back(std::strtod(p, &end));
        if (end == p) return Usage();
        p = *end == ',' ? end + 1 : end;
      }
    } else if (arg == "--spans") {
      spans_path = v;
    } else if (arg == "--source") {
      source = v;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || trace < 0) return Usage();
  cfg.trace = trace == 1;

  Checker checker;
  RunResult result;
  if (workload == "fill") {
    RunFill(cfg, &checker, &result);
  } else if (workload == "tune") {
    RunTune(cfg, &checker, &result);
  } else {
    return Usage();
  }
  if (cfg.setup_only) {
    if (checker.failed() != 0) {
      std::fprintf(stderr, "wallbench: set-up failed: %s\n",
                   checker.first_bad().c_str());
      return 1;
    }
    std::printf("{\"setup_s\":%s}\n", Number(result.setup_s).c_str());
    return 0;
  }
  if (!cfg.trace) {
    setup_samples.push_back(result.setup_s);
    result.Add("setup_s", Median(setup_samples), "s");
    result.Info("setup_s_each", "[" + Join(setup_samples) + "]");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    // Without a tuning loop the best configuration is the baseline.
    if (workload != "tune") result.Add("tune_gain", 1.0, "ratio");
  }
  if (cfg.trace && !spans_path.empty() && !WriteSpans(spans_path)) {
    std::fprintf(stderr, "wallbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }

  std::map<std::string, Metric> by_name;
  for (const Metric& m : result.metrics) by_name.emplace(m.name, m);
  std::string metrics;
  const MetricSpec* first = cfg.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* last = cfg.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  const bool complete = checker.failed() == 0;
  for (const MetricSpec* spec = first; spec != last; ++spec) {
    auto it = by_name.find(spec->name);
    if (it == by_name.end() || it->second.unit != spec->unit) {
      if (complete) {
        std::fprintf(stderr, "wallbench: metric %s missing or mislabelled\n",
                     spec->name);
        return 3;
      }
      continue;
    }
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + std::string(spec->name) + "\":{\"value\":" +
               Number(it->second.value) + ",\"unit\":\"" + spec->unit + "\"}";
    by_name.erase(it);
  }
  if (complete && !by_name.empty()) {
    std::fprintf(stderr, "wallbench: unlisted metric %s\n",
                 by_name.begin()->first.c_str());
    return 3;
  }

  std::string info = "{\"workload\":" + JsonString(workload) +
                     ",\"seed\":" + std::to_string(cfg.seed) +
                     ",\"seconds\":" + Number(cfg.seconds) +
                     ",\"trace\":" + std::to_string(trace) +
                     ",\"compiler\":" + JsonString(__VERSION__) +
                     ",\"build_type\":" + JsonString(WALLBENCH_BUILD_TYPE) +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"source\":" + JsonString(source);
  for (const auto& [k, v] : result.info) info += ",\"" + k + "\":" + v;
  info += "}";
  std::printf("{\"info\":%s}\n", info.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              complete ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(checker.attempted(), 1)),
              static_cast<unsigned long long>(checker.failed()), metrics.c_str());
  std::fflush(stdout);
  if (!complete) {
    std::fprintf(stderr, "wallbench: %llu failed or wrong operations; first: %s\n",
                 static_cast<unsigned long long>(checker.failed()),
                 checker.first_bad().c_str());
    return 1;
  }
  return 0;
}
