// Shared pieces of the wall-clock benchmark: self-identifying values,
// latency samples, the correctness tally, the per-run result, and the
// DB-on-CountingEnv-on-MemEnv store every DB workload opens.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "counting_env.h"
#include "env/mem_env.h"
#include "lsm/db.h"
#include "tracer.h"

namespace wallbench {

constexpr size_t kValueSize = 100;  // db_bench default; keys are 16 bytes
constexpr size_t kEntryBytes = 16 + kValueSize;
inline const char* const kDbName = "/db";

std::string Key(uint64_t index);

// A value names its key and a version, and the rest of its bytes are a
// pattern derived from (key, version, seed), so any Get result can be
// checked without a side table:  <key>@<version:16 hex>#<pattern>.
void MakeValue(const std::string& key, uint64_t version, uint64_t seed,
               std::string* out);
// True when `value` is a well-formed value of `key` for `seed`; its
// version is stored in *version.
bool CheckValue(const std::string& key, const std::string& value,
                uint64_t seed, uint64_t* version);

// Nanosecond latency samples of one operation type. At most kKept are
// kept: when full, every other kept sample is dropped and from then on
// only every second one is taken (and so on), so the memory held, and
// with it the run's peak RSS, does not grow with the number of ops.
class Latencies {
 public:
  static constexpr size_t kKept = 1 << 21;

  void Add(int64_t ns);
  // Adds `other`'s samples, each weighted by the stride it was kept at.
  void Append(const Latencies& other);
  // Samples added, kept or not.
  uint64_t count() const { return count_; }
  // Nearest-rank percentile in microseconds (0 when empty).
  double PercentileUs(double p) const;
  // Summed seconds of samples above `threshold_ns`.
  double SecondsAbove(double threshold_ns) const;

 private:
  // Percentile queries reorder the samples in place (no copy).
  mutable std::vector<uint32_t> ns_;
  uint64_t count_ = 0;
  uint64_t stride_ = 1;  // one sample of every stride_ is kept
};

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

// Counts checked operations and remembers the first failed one. Every
// checked operation is counted by Attempted(); a failed or wrong one is
// also reported to Fail().
class Checker {
 public:
  void Attempted(uint64_t n) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void Fail(const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::string first_bad() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::string first_bad_;  // guarded by mu_
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  // The workload's set-up time (see RunConfig::start_ns).
  double setup_s = 0;
  // Extra facts for the info line, as "key": JSON-value pairs.
  std::vector<std::pair<std::string, std::string>> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& json_value) {
    info.emplace_back(key, json_value);
  }
};

std::string JsonString(const std::string& s);

// MemEnv wrapped by a CountingEnv, and the DB opened on it. Members are
// destroyed in reverse order: DB first, then the envs. Open() may be
// called again: it destroys the previous DB and starts a fresh one on
// the same env, so rounds reuse the env's background threads.
struct Store {
  elmo::MemEnv mem;
  CountingEnv env{&mem};
  std::unique_ptr<elmo::lsm::DB> db;

  elmo::Status Open(elmo::lsm::Options options);
  // Closes the DB and deletes its files.
  elmo::Status Close();
  // WAL + SST + MANIFEST bytes appended since Open().
  uint64_t WrittenBytes();

 private:
  uint64_t written_at_open_ = 0;
};

// DB calls, each wrapped in a span for the traced run.
elmo::Status TracedPut(elmo::lsm::DB* db, const std::string& key,
                      const std::string& value);
elmo::Status TracedGet(elmo::lsm::DB* db, const std::string& key,
                      std::string* value);
elmo::Status Drain(elmo::lsm::DB* db);

// Loads keys [0, n) in key order with version 0, in batches of 3/4 of
// the memtable: each batch is flushed and moved down with CompactRange,
// so the tree has the same shape on every run (no background timing
// decides it). Put latencies go to *puts.
elmo::Status LoadSorted(Store* store, uint64_t n, uint64_t seed,
                        Latencies* puts);

double PeakRssMb();
// Hands memory the allocator holds but no longer uses back to the OS,
// so each round's peak RSS starts from the live data.
void ReleaseFreedMemory();

}  // namespace wallbench
