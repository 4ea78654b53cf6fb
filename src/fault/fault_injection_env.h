// FaultInjectionEnv: a decorator Env that simulates crashes and I/O
// faults. It passes every operation through to a base Env (SimEnv,
// MemEnv or Posix) while tracking, per file, how many bytes have been
// made durable by Sync/RangeSync. A "crash" is then two steps:
//
//   env.SetFilesystemActive(false);   // at the chosen instant: every
//                                     // subsequent write fails (power off)
//   ... tear down the DB object ...
//   env.DropUnsyncedData(mode);       // rewind each file to what the
//                                     // device had actually persisted
//   env.SetFilesystemActive(true);    // "reboot"; reopen the DB
//
// DropUnsyncedData never touches synced bytes; the unsynced tail is
// dropped entirely (kDropAll), torn at a seeded-random byte
// (kTornTail), or torn at a 4 KiB page boundary (kPartialPage) — the
// three shapes a real power loss leaves behind.
//
// Independently, seeded probabilistic error injection can return
// Status::IOError from read/write/sync, deliver short reads, or flip a
// bit in read buffers (exercising block CRC paths), filtered by the
// classified file kind from env/io_trace.h. Everything random is driven
// by one Random64 from the constructor seed, so under SimEnv a whole
// fault schedule is reproducible from a single integer.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "env/env.h"
#include "env/io_trace.h"
#include "util/random.h"

namespace elmo {

// How DropUnsyncedData mutilates the unsynced tail of each file.
enum class DropMode {
  kDropAll,      // truncate to exactly the synced prefix
  kTornTail,     // keep a seeded-random prefix of the unsynced bytes
  kPartialPage,  // like kTornTail but cut down to a 4 KiB page boundary
};

struct FaultInjectionConfig {
  // Per-operation injection probabilities in [0, 1].
  double read_error = 0;
  double write_error = 0;
  double sync_error = 0;
  double short_read = 0;       // read returns fewer bytes than asked
  double read_corruption = 0;  // flip one bit in the returned buffer
  // Only files of these kinds are eligible; empty means every kind.
  std::set<IOFileKind> kinds;
  // Planted bug: report WAL syncs as successful without marking the
  // bytes durable. DropUnsyncedData then erases data the DB had
  // acknowledged as synced — exactly the violation the stress oracle
  // must catch. Never set outside violation-detection tests.
  bool lie_on_wal_sync = false;
  // Transient-fault mode: injected read/write/sync errors are marked
  // retryable (Status::IsRetryable), telling the DB's ErrorHandler the
  // fault is expected to clear — the auto-resume path is exercised
  // instead of permanent degradation.
  bool retryable = false;
  // Transient-fault burst length: injection disarms itself after this
  // many operations have passed through the fault hooks (eligible or
  // not), as if the device recovered. 0 = stay armed until
  // ClearFaults()/ClearErrorInjection().
  uint64_t transient_ops = 0;
};

struct FaultCounters {
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t sync_errors = 0;
  uint64_t short_reads = 0;
  uint64_t read_corruptions = 0;
  uint64_t wal_sync_lies = 0;
  uint64_t files_dropped = 0;   // files rewound by DropUnsyncedData
  uint64_t bytes_dropped = 0;   // unsynced bytes erased across all drops
  uint64_t transient_expiries = 0;  // bursts that disarmed themselves
};

class FaultInjectionEnv : public EnvWrapper {
 public:
  explicit FaultInjectionEnv(Env* base, uint64_t seed = 42);
  ~FaultInjectionEnv() override;

  // ---- crash simulation ----
  // While inactive, every mutating operation (append, sync, file
  // create/remove/rename) fails with Status::IOError; reads still work.
  void SetFilesystemActive(bool active);
  bool filesystem_active() const {
    return active_.load(std::memory_order_acquire);
  }
  // Kill-point handler shape: "power is cut at this instruction".
  void CrashNow() { SetFilesystemActive(false); }

  // Rewind every tracked file to its durable prefix (see file comment).
  // Call with the DB torn down and the filesystem inactive or quiescent.
  Status DropUnsyncedData(DropMode mode = DropMode::kDropAll);

  // ---- error injection ----
  void SetErrorInjection(const FaultInjectionConfig& config);
  void ClearErrorInjection();
  // Transient-fault vocabulary: the device "recovered" — same effect as
  // a burst expiring via FaultInjectionConfig::transient_ops.
  void ClearFaults() { ClearErrorInjection(); }
  // True while error injection is armed (a transient burst that hit its
  // transient_ops budget reports false).
  bool InjectionArmed() const;
  FaultCounters counters() const;

  // Forget all per-file durability tracking (e.g. after DestroyDB).
  void ResetState();

  // Introspection for tests.
  uint64_t SyncedBytes(const std::string& fname) const;
  uint64_t TrackedSize(const std::string& fname) const;
  bool IsTracked(const std::string& fname) const;

  // Env interface: file factories wrap, mutating ops are gated on
  // filesystem_active() and keep the durability bookkeeping; everything
  // else forwards (EnvWrapper).
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDirIfMissing(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status RenameFile(const std::string& src, const std::string& target) override;

 private:
  friend class FaultSequentialFile;
  friend class FaultRandomAccessFile;
  friend class FaultWritableFile;

  struct FileState {
    uint64_t size = 0;    // bytes appended through the wrapper
    uint64_t synced = 0;  // durable prefix length
  };

  // Write-side bookkeeping (called by FaultWritableFile).
  void OnAppend(const std::string& fname, uint64_t bytes);
  void OnSync(const std::string& fname);
  void OnRangeSync(const std::string& fname, uint64_t offset);

  // Injection decisions. Read hooks may mutate `result` in place
  // (bit-flip corruption lands in the caller's scratch buffer).
  Status MaybeInjectWriteError(const std::string& fname);
  Status MaybeInjectSyncError(const std::string& fname, bool* lied);
  Status MaybeInjectReadFault(const std::string& fname, Slice* result);

  bool KindEligibleLocked(const std::string& fname) const;  // holds mu_
  // Charge one operation against a transient burst and report whether
  // injection is still live; disarms once transient_ops is exhausted.
  bool InjectionLiveLocked();
  Status InjectedError(const std::string& what,
                       const std::string& fname) const;  // holds mu_

  std::atomic<bool> active_{true};
  mutable std::mutex mu_;  // guards files_, cfg_, inject_, rng_, counters_
  std::map<std::string, FileState> files_;
  FaultInjectionConfig cfg_;
  bool inject_ = false;
  uint64_t burst_ops_seen_ = 0;  // hook calls since SetErrorInjection
  Random64 rng_;
  FaultCounters counters_;
};

}  // namespace elmo
