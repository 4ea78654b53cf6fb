// The crash-recovery stress driver behind tools/elmo_stress: randomized
// Put/Get/Delete/WriteBatch/Iterator/property traffic against a DB
// running on FaultInjectionEnv, punctuated by crash → DropUnsyncedData
// → reopen cycles triggered either by arming a random engine kill point
// or by cutting power directly between ops. After every recovery the
// expected-state oracle (expected_state.h) checks WAL-prefix
// consistency, an iterator/point-read cross-check runs over every key,
// and the whole DB directory must pass elmo_dump-level dissection.
//
// Under SimEnv (env_kind="sim", threads=1) a run is a pure function of
// the seed: same seed → same op stream, same fault schedule, same
// verdict, same schedule_hash. That makes
//   elmo_stress --options_file=<llm proposal> --seed=N
// a reproducible crash-certification gate for tuning proposals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injection_env.h"
#include "lsm/options.h"

namespace elmo::stress {

struct StressConfig {
  uint64_t seed = 42;
  uint64_t ops = 20000;  // total ops, split evenly across crash cycles
  int crash_cycles = 10;
  int threads = 1;  // >1 switches the oracle to relaxed per-key checks
  uint32_t num_keys = 512;  // rounded up to a multiple of `shards`
  size_t value_len = 64;
  // Op mix in percent (remainder = plain puts).
  int delete_pct = 10;
  int get_pct = 30;
  int iterate_pct = 8;
  int batch_pct = 10;
  int property_pct = 2;
  int sync_every = 31;    // ~1/N of writes use sync=true (0 = never)
  int flush_every = 511;  // ~1/N ops call FlushMemTable (0 = never)
  // "sim" (deterministic virtual clock), "mem" (in-memory, real clock)
  // or "posix" (db_path must be a real directory).
  std::string env_kind = "sim";
  std::string db_path = "/stress_db";
  // Starting options; env/create_if_missing are overridden by the
  // driver. Load an LLM proposal into this to crash-certify it.
  lsm::Options base_options;
  int shards = 16;
  bool use_kill_points = true;  // arm a random kill point on ~half the cycles
  bool read_faults = true;      // seeded read-fault segments (errors, short
                                // reads, SST bit flips vs block CRCs)
  bool write_faults = true;     // occasional injected write-error segments
  int drop_mode = -1;  // -1: random per crash; else a DropMode value
  // Plant a real consistency bug (FaultInjectionEnv lies about WAL
  // sync): the run MUST end with ok=false and a first_divergence.
  bool plant_wal_sync_violation = false;
  // Transient-fault recovery campaign: instead of crash → drop → reopen
  // cycles, each cycle arms a seeded *retryable* write/sync error burst
  // (FaultInjectionConfig{retryable, transient_ops}) mid-traffic and the
  // DB is NEVER reopened — it must ride the burst out via the
  // ErrorHandler's auto-resume (writes stall or fail fast while
  // degraded, reads keep serving). After each burst the driver waits for
  // the error state to clear, proves writes ack again, and checks every
  // key against the oracle: no acknowledged write may be lost. Disables
  // kill points and crash cycles.
  bool transient_faults = false;
  // Hook-operation budget per transient burst (the burst disarms itself
  // after this many fault-hook calls, as if the device recovered).
  uint64_t transient_burst_ops = 40;
  // When non-empty, every DB open (re)starts a span trace at this path
  // (lsm/span.h); the file holds the last cycle's trace. Best-effort:
  // a crash can drop the unsynced tail with everything else.
  std::string span_trace_path;
};

struct StressReport {
  bool ok = false;
  std::string first_divergence;  // empty when ok
  uint64_t ops_executed = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t gets = 0;
  uint64_t iterator_ops = 0;
  uint64_t batches = 0;
  uint64_t sync_writes = 0;
  uint64_t flushes = 0;
  uint64_t property_checks = 0;
  int crash_cycles_done = 0;
  // Transient-fault campaign: retryable bursts ridden out (no reopen),
  // split by how the error state cleared — auto-resume alone vs a
  // manual DB::Resume() fallback (the CI leg alerts when the fallback
  // ever fires).
  int transient_bursts_done = 0;
  uint64_t auto_resumes = 0;
  uint64_t manual_resumes = 0;
  uint64_t kill_point_fires = 0;
  uint64_t write_failures = 0;        // ops refused by faults/cut power
  uint64_t read_faults_tolerated = 0;  // reads failed under injection
  uint64_t final_live_keys = 0;
  uint64_t schedule_hash = 0;  // op/fault/verdict fingerprint (stable
                               // for equal seeds when threads==1 + sim)
  FaultCounters fault_counters;
  // Final "elmo.perf" property dump: the per-op-kind span aggregate.
  std::string perf_breakdown;
  std::string ToJson() const;
};

// Run one full stress campaign. Never throws; violations and setup
// failures both land in report.ok / report.first_divergence.
StressReport RunStress(const StressConfig& config);

// Kill-point names the driver arms (must exist in the engine; see
// stress_kit_test which asserts they are reachable).
const std::vector<std::string>& StressKillPoints();

// "123" → 123; anything non-numeric hashes (FNV-1a) so --seed=ci works.
uint64_t StressSeedFromString(const std::string& s);

}  // namespace elmo::stress
