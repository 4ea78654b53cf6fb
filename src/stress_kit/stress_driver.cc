#include "stress_kit/stress_driver.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_kit/dump_tool.h"
#include "env/hardware_profile.h"
#include "env/mem_env.h"
#include "env/sim_env.h"
#include "fault/kill_point.h"
#include "lsm/db.h"
#include "lsm/span.h"
#include "stress_kit/expected_state.h"
#include "util/json.h"
#include "util/random.h"

namespace elmo::stress {

const std::vector<std::string>& StressKillPoints() {
  static const std::vector<std::string> kPoints = {
      "wal:after_append",
      "wal:after_sync",
      "flush:before_sst_sync",
      "flush:after_sst_sync",
      "flush:before_manifest_apply",
      "compaction:before_output_sync",
      "compaction:after_apply",
      "manifest:before_sync",
      "manifest:after_sync",
      "current:before_rename",
      "current:after_rename",
  };
  return kPoints;
}

uint64_t StressSeedFromString(const std::string& s) {
  if (!s.empty() && s.find_first_not_of("0123456789") == std::string::npos) {
    return strtoull(s.c_str(), nullptr, 10);
  }
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string StressReport::ToJson() const {
  const auto escape = [](const std::string& in) {
    std::string out;
    for (const char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  };
  const std::string escaped = escape(first_divergence);
  char buf[2048];
  snprintf(
      buf, sizeof(buf),
      "{\"ok\": %s, \"first_divergence\": \"%s\", \"ops_executed\": %" PRIu64
      ", \"puts\": %" PRIu64 ", \"deletes\": %" PRIu64 ", \"gets\": %" PRIu64
      ", \"iterator_ops\": %" PRIu64 ", \"batches\": %" PRIu64
      ", \"sync_writes\": %" PRIu64 ", \"flushes\": %" PRIu64
      ", \"property_checks\": %" PRIu64 ", \"crash_cycles_done\": %d"
      ", \"transient_bursts_done\": %d, \"auto_resumes\": %" PRIu64
      ", \"manual_resumes\": %" PRIu64
      ", \"kill_point_fires\": %" PRIu64 ", \"write_failures\": %" PRIu64
      ", \"read_faults_tolerated\": %" PRIu64 ", \"final_live_keys\": %" PRIu64
      ", \"schedule_hash\": \"%016" PRIx64 "\", \"fault_counters\": "
      "{\"read_errors\": %" PRIu64 ", \"write_errors\": %" PRIu64
      ", \"sync_errors\": %" PRIu64 ", \"short_reads\": %" PRIu64
      ", \"read_corruptions\": %" PRIu64 ", \"wal_sync_lies\": %" PRIu64
      ", \"transient_expiries\": %" PRIu64
      ", \"files_dropped\": %" PRIu64 ", \"bytes_dropped\": %" PRIu64 "}",
      ok ? "true" : "false", escaped.c_str(), ops_executed, puts, deletes,
      gets, iterator_ops, batches, sync_writes, flushes, property_checks,
      crash_cycles_done, transient_bursts_done, auto_resumes, manual_resumes,
      kill_point_fires, write_failures,
      read_faults_tolerated, final_live_keys, schedule_hash,
      fault_counters.read_errors, fault_counters.write_errors,
      fault_counters.sync_errors, fault_counters.short_reads,
      fault_counters.read_corruptions, fault_counters.wal_sync_lies,
      fault_counters.transient_expiries,
      fault_counters.files_dropped, fault_counters.bytes_dropped);
  std::string out = buf;
  out += ", \"perf_breakdown\": \"" + escape(perf_breakdown) + "\"}";
  return out;
}

namespace {

StressConfig Sanitize(StressConfig cfg) {
  cfg.shards = std::max(1, cfg.shards);
  cfg.crash_cycles = std::max(1, cfg.crash_cycles);
  cfg.threads = std::max(1, cfg.threads);
  cfg.ops = std::max<uint64_t>(cfg.ops, 1);
  // Batches pick shard-congruent keys (one order lock); keep enough
  // keys that 4 congruent picks stay distinct.
  const uint32_t min_keys = static_cast<uint32_t>(4 * cfg.shards);
  cfg.num_keys = std::max(cfg.num_keys, min_keys);
  const uint32_t rem = cfg.num_keys % cfg.shards;
  if (rem != 0) cfg.num_keys += cfg.shards - rem;
  cfg.value_len = std::max<size_t>(cfg.value_len, 24);
  if (cfg.transient_faults) {
    // The transient campaign is a pure error-handling exercise: one op
    // stream, the retryable burst as the only fault source, and no
    // power cuts — the strict oracle check then demands every acked
    // write stays exactly visible.
    cfg.threads = 1;
    cfg.use_kill_points = false;
    cfg.read_faults = false;
    cfg.write_faults = false;
    cfg.plant_wal_sync_violation = false;
    cfg.transient_burst_ops = std::max<uint64_t>(cfg.transient_burst_ops, 4);
  }
  return cfg;
}

class StressDriver {
 public:
  explicit StressDriver(const StressConfig& config)
      : cfg_(Sanitize(config)),
        oracle_(cfg_.num_keys, cfg_.shards),
        rng_(cfg_.seed),
        order_mu_(cfg_.shards) {}

  StressReport Run() {
    Status s = Setup();
    if (!s.ok()) {
      Violation("setup failed: " + s.ToString());
      return Finish();
    }
    if (cfg_.transient_faults) {
      RunTransientCampaign();
      return Finish();
    }
    // A fired kill point cuts its segment short, so undone ops roll
    // forward: extra cycles run until the campaign has executed exactly
    // cfg_.ops (every cycle makes progress — the filesystem is active
    // at segment start, so op counts cannot stall).
    int cycle = 0;
    while (!violation_ &&
           (cycle < cfg_.crash_cycles || ops_executed_ < cfg_.ops)) {
      const uint64_t done = ops_executed_;
      const uint64_t remaining = cfg_.ops > done ? cfg_.ops - done : 0;
      const int cycles_left = std::max(1, cfg_.crash_cycles - cycle);
      const uint64_t n = std::max<uint64_t>(
          1, remaining / static_cast<uint64_t>(cycles_left));
      RunSegment(cycle, n);
      if (violation_) break;
      CrashAndRecover();
      cycle++;
    }
    return Finish();
  }

 private:
  struct SegmentPlan {
    bool arm = false;
    std::string point;
    int skip = 0;
    bool read_faults = false;
    bool write_faults = false;
  };

  bool single_threaded() const { return cfg_.threads <= 1; }

  void Fold(uint64_t v) {
    // FNV-1a over every decision; only meaningful (and only folded from
    // one thread) in single-threaded mode.
    hash_ ^= v;
    hash_ *= 1099511628211ull;
  }
  void FoldST(uint64_t v) {
    if (single_threaded()) Fold(v);
  }

  void Violation(const std::string& why) {
    std::lock_guard<std::mutex> l(violation_mu_);
    if (!violation_) first_divergence_ = why;
    violation_ = true;
    segment_stop_ = true;
  }

  Status Setup() {
    // The report embeds "elmo.perf" (the process-wide span aggregate).
    // Zero it so same-seed campaigns in one process produce
    // byte-identical reports. Safe here: no other DB is open while a
    // stress campaign runs.
    lsm::GlobalSpanAggregate()->Reset();
    if (cfg_.env_kind == "sim") {
      sim_env_ = std::make_unique<SimEnv>(
          HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()), cfg_.seed);
      base_env_ = sim_env_.get();
    } else if (cfg_.env_kind == "mem") {
      mem_env_ = std::make_unique<MemEnv>();
      base_env_ = mem_env_.get();
    } else if (cfg_.env_kind == "posix") {
      base_env_ = Env::Posix();
    } else {
      return Status::InvalidArgument("unknown env_kind: " + cfg_.env_kind);
    }
    fault_ = std::make_unique<FaultInjectionEnv>(base_env_,
                                                 cfg_.seed ^ 0x5deece66dull);
    if (cfg_.env_kind == "posix") {
      lsm::Options destroy_opts = cfg_.base_options;
      destroy_opts.env = fault_.get();
      lsm::DB::DestroyDB(cfg_.db_path, destroy_opts);
      fault_->ResetState();
    }
    ApplyBaseInjection();
    return OpenDb();
  }

  Status OpenDb() {
    lsm::Options o = cfg_.base_options;
    o.env = fault_.get();
    o.create_if_missing = true;
    if (cfg_.read_faults) {
      // Bit-flip injection relies on block CRCs being checked on every
      // SST read (including compaction inputs).
      o.paranoid_checks = true;
    }
    db_.reset();
    Status s = lsm::DB::Open(o, cfg_.db_path, &db_);
    if (s.ok() && !cfg_.span_trace_path.empty()) {
      // Best-effort per-cycle span trace; the file holds the last
      // cycle's capture. A crash may drop its unsynced tail.
      db_->StartSpanTrace(cfg_.span_trace_path);
    }
    return s;
  }

  // Error injection that outlives segment plans (the planted WAL-sync
  // lie must persist so the oracle can catch it).
  void ApplyBaseInjection() {
    FaultInjectionConfig fc;
    fc.lie_on_wal_sync = cfg_.plant_wal_sync_violation;
    fault_->SetErrorInjection(fc);
    faults_active_ = false;
  }

  void ApplySegmentInjection(const SegmentPlan& plan) {
    FaultInjectionConfig fc;
    fc.lie_on_wal_sync = cfg_.plant_wal_sync_violation;
    if (plan.read_faults) {
      fc.read_error = 0.002;
      fc.short_read = 0.002;
      fc.read_corruption = 0.01;
      // Never fault WAL/MANIFEST reads: a short read there looks like a
      // clean EOF to the log reader and would silently hide records.
      fc.kinds = {IOFileKind::kSstData, IOFileKind::kSstIndexFilter};
    } else if (plan.write_faults) {
      fc.write_error = 0.001;
      fc.kinds = {IOFileKind::kWal, IOFileKind::kSstData,
                  IOFileKind::kManifest};
    }
    fault_->SetErrorInjection(fc);
    faults_active_ = plan.read_faults || plan.write_faults;
  }

  SegmentPlan PlanSegment() {
    SegmentPlan plan;
    if (cfg_.use_kill_points) {
      const auto& points = StressKillPoints();
      plan.arm = rng_.Uniform(2) == 0;
      plan.point = points[rng_.Uniform(points.size())];
      plan.skip = static_cast<int>(rng_.Uniform(3));
    }
    plan.read_faults = cfg_.read_faults && rng_.Uniform(4) == 0;
    plan.write_faults =
        !plan.read_faults && cfg_.write_faults && rng_.Uniform(8) == 0;
    Fold(plan.arm ? StressSeedFromString(plan.point) : 0);
    Fold(plan.skip);
    Fold((plan.read_faults ? 2u : 0u) | (plan.write_faults ? 1u : 0u));
    return plan;
  }

  uint64_t WorkerSeed(int cycle, int tid) const {
    const uint64_t x =
        cfg_.seed ^
        0x9e3779b97f4a7c15ull * static_cast<uint64_t>(cycle * 64 + tid + 1);
    return x ? x : 1;
  }

  void RunSegment(int cycle, uint64_t n) {
    const SegmentPlan plan = PlanSegment();
    auto& registry = KillPointRegistry::Instance();
    if (plan.arm) {
      registry.Arm(plan.point, [env = fault_.get()] { env->CrashNow(); },
                   plan.skip);
    }
    ApplySegmentInjection(plan);
    segment_stop_ = false;
    if (single_threaded()) {
      Random64 rng(WorkerSeed(cycle, 0));
      for (uint64_t i = 0; i < n && !segment_stop_ && !violation_; i++) {
        DoOneOp(rng);
      }
    } else {
      const uint64_t each = std::max<uint64_t>(1, n / cfg_.threads);
      std::vector<std::thread> workers;
      for (int t = 0; t < cfg_.threads; t++) {
        workers.emplace_back([this, cycle, t, each] {
          Random64 rng(WorkerSeed(cycle, t));
          for (uint64_t i = 0; i < each && !segment_stop_ && !violation_;
               i++) {
            DoOneOp(rng);
          }
        });
      }
      for (auto& w : workers) w.join();
    }
    ApplyBaseInjection();
    if (plan.arm) {
      if (registry.fired()) {
        kill_point_fires_++;
      } else {
        registry.Disarm();
      }
    }
  }

  void CrashAndRecover() {
    // Power off (idempotent if a kill point already cut it), tear the
    // process state down, rewind the device, reboot, reopen, verify.
    fault_->CrashNow();
    const uint64_t max_op = next_op_.load() - 1;
    db_.reset();
    DropMode mode = cfg_.drop_mode >= 0
                        ? static_cast<DropMode>(cfg_.drop_mode)
                        : static_cast<DropMode>(rng_.Uniform(3));
    FoldST(static_cast<uint64_t>(mode));
    Status s = fault_->DropUnsyncedData(mode);
    if (!s.ok()) {
      Violation("DropUnsyncedData failed: " + s.ToString());
      return;
    }
    fault_->SetFilesystemActive(true);
    Status open = OpenDb();
    if (!open.ok()) {
      Violation("recovery failed to open the DB: " + open.ToString());
      return;
    }
    VerifyRecovery(max_op);
    crash_cycles_done_++;
  }

  void VerifyRecovery(uint64_t max_op) {
    // elmo_dump must be able to dissect every recovered artifact.
    std::string text;
    Status ds = bench::DumpDbDir(fault_.get(), cfg_.db_path, &text);
    if (!ds.ok()) {
      Violation("post-recovery elmo_dump integrity check failed: " +
                ds.ToString());
      return;
    }

    std::vector<ExpectedState::Observed> obs(cfg_.num_keys);
    lsm::ReadOptions ro;
    ro.verify_checksums = true;
    uint64_t found = 0;
    {
      auto it = db_->NewIterator(ro);
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        uint32_t k = 0, vk = 0;
        uint64_t op = 0;
        const std::string cur = it->key().ToString();
        if (!ParseStressKey(it->key(), &k) || k >= cfg_.num_keys) {
          Violation("recovered scan returned a foreign key: " + cur);
          return;
        }
        if (!DecodeStressValue(it->value(), &vk, &op) || vk != k) {
          Violation("recovered value for " + cur +
                    " is corrupt or mislabeled");
          return;
        }
        if (!prev.empty() && prev >= cur) {
          Violation("recovered iterator order broken at " + cur);
          return;
        }
        if (obs[k].found) {
          Violation("recovered scan returned " + cur + " twice");
          return;
        }
        obs[k] = {true, op};
        found++;
        prev = cur;
      }
      if (!it->status().ok()) {
        Violation("recovered iterator failed: " + it->status().ToString());
        return;
      }
    }

    // Point reads must agree with the scan.
    for (uint32_t k = 0; k < cfg_.num_keys; k++) {
      std::string v;
      Status gs = db_->Get(ro, StressKeyName(k), &v);
      if (gs.ok() != obs[k].found) {
        Violation(StressKeyName(k) +
                  (obs[k].found
                       ? ": present in scan but Get says " + gs.ToString()
                       : ": missing in scan but Get found a value"));
        return;
      }
      if (!gs.ok() && !gs.IsNotFound()) {
        Violation("post-recovery Get(" + StressKeyName(k) +
                  ") failed: " + gs.ToString());
        return;
      }
      if (gs.ok()) {
        uint32_t vk = 0;
        uint64_t op = 0;
        if (!DecodeStressValue(v, &vk, &op) || vk != k ||
            op != obs[k].op_index) {
          Violation("Get and iterator disagree on " + StressKeyName(k));
          return;
        }
      }
    }

    std::string why;
    if (single_threaded()) {
      uint64_t cut = 0;
      if (!oracle_.VerifyCrashCut(obs, max_op, &cut, &why)) {
        Violation(why);
        return;
      }
      Fold(cut);
    } else {
      if (!oracle_.VerifyCrashRelaxed(obs, &why)) {
        Violation(why);
        return;
      }
    }
    FoldST(found);
  }

  // ---- transient-fault campaign (no crash, no reopen) ----

  // True while the engine reports an active background error.
  bool DbDegraded() {
    std::string text;
    if (!db_->GetProperty("elmo.bg_error", &text)) return false;
    json::Value doc;
    if (!json::Parse(text, &doc).ok()) return false;
    const json::Value* sev = doc.Find("severity");
    return sev != nullptr && sev->as_string() != "none";
  }

  void RunTransientCampaign() {
    // cfg_.crash_cycles counts burst/recover cycles here; the DB opened
    // in Setup() stays open for the whole campaign.
    int cycle = 0;
    while (!violation_ &&
           (cycle < cfg_.crash_cycles || ops_executed_ < cfg_.ops)) {
      const uint64_t done = ops_executed_;
      const uint64_t remaining = cfg_.ops > done ? cfg_.ops - done : 0;
      const int cycles_left = std::max(1, cfg_.crash_cycles - cycle);
      const uint64_t n = std::max<uint64_t>(
          4, remaining / static_cast<uint64_t>(cycles_left));
      RunTransientCycle(cycle, n);
      cycle++;
    }
  }

  void RunTransientCycle(int cycle, uint64_t n) {
    // Clean traffic first, then a seeded retryable burst mid-stream
    // while ops keep coming (failed writes land in the oracle as
    // unacked), then recovery + the no-lost-acks check.
    segment_stop_ = false;
    Random64 rng(WorkerSeed(cycle, 0));
    const uint64_t clean = n / 3 + 1;
    for (uint64_t i = 0; i < clean && !violation_; i++) DoOneOp(rng);
    if (violation_) return;

    FaultInjectionConfig fc;
    fc.retryable = true;
    fc.transient_ops = cfg_.transient_burst_ops;
    fc.write_error = 0.2;
    fc.sync_error = 0.2;
    fc.kinds = {IOFileKind::kWal, IOFileKind::kSstData,
                IOFileKind::kManifest};
    fault_->SetErrorInjection(fc);
    faults_active_ = true;
    Fold(0x7f417f41u ^ static_cast<uint64_t>(cycle));

    for (uint64_t i = clean; i < n && !violation_; i++) {
      DoOneOp(rng);
      if (!fault_->InjectionArmed()) break;  // burst budget spent
    }
    ApplyBaseInjection();  // clears any remaining injection
    if (violation_) return;
    transient_bursts_done_++;

    if (!AwaitRecovery(rng)) return;
    VerifyNoLostAcks();
  }

  // Wait for the error state to clear — auto-resume first (under SimEnv
  // WaitForBackgroundWork drives the retry schedule inline by advancing
  // the virtual clock; on real envs the recovery thread polls), manual
  // Resume() as a counted last resort — then prove writes ack again.
  bool AwaitRecovery(Random64& rng) {
    bool manual = false;
    for (int i = 0; i < 64 && DbDegraded(); i++) {
      db_->WaitForBackgroundWork();
      if (!DbDegraded()) break;
      if (i >= 8) {
        manual = true;
        db_->Resume();
      } else {
        base_env_->SleepForMicroseconds(10 * 1000);
      }
    }
    if (DbDegraded()) {
      std::string text;
      db_->GetProperty("elmo.bg_error", &text);
      Violation("DB still degraded after a transient fault burst: " + text);
      return false;
    }
    if (manual) {
      manual_resumes_++;
    } else {
      auto_resumes_++;
    }
    FoldST(manual ? 2 : 1);
    // The probe write must ack — and a fully-acked write resets the
    // error handler's episode retry budget before the next burst.
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(cfg_.num_keys));
    const uint64_t op = next_op_.fetch_add(1);
    lsm::WriteOptions wo;
    wo.sync = true;
    Status s = db_->Put(wo, StressKeyName(key),
                        StressValueFor(key, op, cfg_.value_len));
    oracle_.RecordWrite(key, op, /*is_delete=*/false, s.ok());
    FoldST(0x600 | key);
    if (!s.ok()) {
      Violation("post-recovery probe write failed: " + s.ToString());
      return false;
    }
    puts_++;
    sync_writes_++;
    NoteAck(op);
    oracle_.RecordSyncPoint(op);
    return true;
  }

  void VerifyNoLostAcks() {
    // No crash happened and refused writes can never surface (the
    // memtable insert is gated on WAL success), so after pruning the
    // unacked entries the oracle's Latest() per key must be EXACTLY
    // what the still-open DB serves: any acked write missing — or any
    // refused write visible — is a divergence.
    oracle_.PruneUnacked();
    lsm::ReadOptions ro;
    ro.verify_checksums = true;
    std::vector<ExpectedState::Observed> obs(cfg_.num_keys);
    {
      auto it = db_->NewIterator(ro);
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        uint32_t k = 0, vk = 0;
        uint64_t op = 0;
        const std::string cur = it->key().ToString();
        if (!ParseStressKey(it->key(), &k) || k >= cfg_.num_keys) {
          Violation("post-resume scan returned a foreign key: " + cur);
          return;
        }
        if (!DecodeStressValue(it->value(), &vk, &op) || vk != k) {
          Violation("post-resume value for " + cur +
                    " is corrupt or mislabeled");
          return;
        }
        if (!prev.empty() && prev >= cur) {
          Violation("post-resume iterator order broken at " + cur);
          return;
        }
        if (obs[k].found) {
          Violation("post-resume scan returned " + cur + " twice");
          return;
        }
        obs[k] = {true, op};
        prev = cur;
      }
      if (!it->status().ok()) {
        Violation("post-resume iterator failed: " + it->status().ToString());
        return;
      }
    }
    uint64_t found = 0;
    for (uint32_t k = 0; k < cfg_.num_keys; k++) {
      const auto expected = oracle_.Latest(k);
      if (expected.exists != obs[k].found ||
          (expected.exists && expected.op_index != obs[k].op_index)) {
        char buf[192];
        snprintf(buf, sizeof(buf),
                 "acked write diverged after transient-fault recovery: %s "
                 "expected %s op %" PRIu64 ", observed %s op %" PRIu64,
                 StressKeyName(k).c_str(),
                 expected.exists ? "value" : "nothing", expected.op_index,
                 obs[k].found ? "value" : "nothing", obs[k].op_index);
        Violation(buf);
        return;
      }
      // Point reads must agree with the scan.
      std::string v;
      Status gs = db_->Get(ro, StressKeyName(k), &v);
      if (!gs.ok() && !gs.IsNotFound()) {
        Violation("post-resume Get(" + StressKeyName(k) +
                  ") failed: " + gs.ToString());
        return;
      }
      if (gs.ok() != obs[k].found) {
        Violation("post-resume Get and iterator disagree on " +
                  StressKeyName(k));
        return;
      }
      if (gs.ok()) found++;
    }
    FoldST(found);
  }

  // ---- ops ----

  std::unique_lock<std::mutex> MaybeOrderLock(uint32_t key) {
    // In multi-threaded mode the shard lock is held across DB call +
    // oracle record so each key's history order matches its WAL order.
    if (single_threaded()) return {};
    return std::unique_lock<std::mutex>(order_mu_[key % cfg_.shards]);
  }

  void NoteAck(uint64_t op) {
    uint64_t cur = last_acked_.load(std::memory_order_relaxed);
    while (cur < op && !last_acked_.compare_exchange_weak(cur, op)) {
    }
  }

  void DoOneOp(Random64& rng) {
    if (!fault_->filesystem_active()) {
      segment_stop_ = true;
      return;
    }
    ops_executed_++;
    if (cfg_.flush_every > 0 && rng.Uniform(cfg_.flush_every) == 0) {
      DoFlush();
      return;
    }
    const uint64_t pick = rng.Uniform(100);
    FoldST(pick);
    uint64_t cursor = 0;
    if (pick < (cursor += cfg_.get_pct)) {
      DoGet(rng);
    } else if (pick < (cursor += cfg_.iterate_pct)) {
      DoIterate(rng);
    } else if (pick < (cursor += cfg_.delete_pct)) {
      DoDelete(rng);
    } else if (pick < (cursor += cfg_.batch_pct)) {
      DoBatch(rng);
    } else if (pick < (cursor += cfg_.property_pct)) {
      DoProperty();
    } else {
      DoPut(rng);
    }
  }

  void DoPut(Random64& rng) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(cfg_.num_keys));
    const bool sync =
        cfg_.sync_every > 0 && rng.Uniform(cfg_.sync_every) == 0;
    auto lock = MaybeOrderLock(key);
    const uint64_t op = next_op_.fetch_add(1);
    lsm::WriteOptions wo;
    wo.sync = sync;
    Status s = db_->Put(wo, StressKeyName(key),
                        StressValueFor(key, op, cfg_.value_len));
    oracle_.RecordWrite(key, op, /*is_delete=*/false, s.ok());
    FoldST(0x100 | key);
    FoldST(s.ok() ? 1 : 0);
    if (s.ok()) {
      puts_++;
      NoteAck(op);
      if (sync) {
        sync_writes_++;
        if (single_threaded()) {
          oracle_.RecordSyncPoint(op);
        } else {
          oracle_.RecordKeySync(key, op);
        }
      }
    } else {
      write_failures_++;
      segment_stop_ = true;
    }
  }

  void DoDelete(Random64& rng) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(cfg_.num_keys));
    const bool sync =
        cfg_.sync_every > 0 && rng.Uniform(cfg_.sync_every) == 0;
    auto lock = MaybeOrderLock(key);
    const uint64_t op = next_op_.fetch_add(1);
    lsm::WriteOptions wo;
    wo.sync = sync;
    Status s = db_->Delete(wo, StressKeyName(key));
    oracle_.RecordWrite(key, op, /*is_delete=*/true, s.ok());
    FoldST(0x200 | key);
    FoldST(s.ok() ? 1 : 0);
    if (s.ok()) {
      deletes_++;
      NoteAck(op);
      if (sync) {
        sync_writes_++;
        if (single_threaded()) {
          oracle_.RecordSyncPoint(op);
        } else {
          oracle_.RecordKeySync(key, op);
        }
      }
    } else {
      write_failures_++;
      segment_stop_ = true;
    }
  }

  void DoBatch(Random64& rng) {
    const int count = 2 + static_cast<int>(rng.Uniform(3));
    const uint32_t k0 = static_cast<uint32_t>(rng.Uniform(cfg_.num_keys));
    auto lock = MaybeOrderLock(k0);  // all batch keys share k0's shard
    const uint64_t base = next_op_.fetch_add(count);
    WriteBatch batch;
    struct Pending {
      uint32_t key;
      uint64_t op;
      bool is_delete;
    };
    std::vector<Pending> pending;
    for (int j = 0; j < count; j++) {
      const uint32_t key = static_cast<uint32_t>(
          (k0 + static_cast<uint64_t>(j) * cfg_.shards) % cfg_.num_keys);
      const uint64_t op = base + j;
      const bool del = rng.Uniform(4) == 0;
      if (del) {
        batch.Delete(StressKeyName(key));
      } else {
        batch.Put(StressKeyName(key),
                  StressValueFor(key, op, cfg_.value_len));
      }
      pending.push_back({key, op, del});
      FoldST(0x300 | key);
    }
    Status s = db_->Write({}, &batch);
    for (const auto& p : pending) {
      oracle_.RecordWrite(p.key, p.op, p.is_delete, s.ok());
    }
    FoldST(s.ok() ? 1 : 0);
    if (s.ok()) {
      batches_++;
      NoteAck(base + count - 1);
    } else {
      write_failures_++;
      segment_stop_ = true;
    }
  }

  void DoGet(Random64& rng) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(cfg_.num_keys));
    lsm::ReadOptions ro;
    ro.verify_checksums = true;
    std::string v;
    Status s = db_->Get(ro, StressKeyName(key), &v);
    gets_++;
    FoldST(0x400 | key);
    if (!s.ok() && !s.IsNotFound()) {
      if (faults_active_) {
        read_faults_tolerated_++;
      } else {
        Violation("Get(" + StressKeyName(key) + ") failed: " + s.ToString());
      }
      return;
    }
    uint32_t vk = 0;
    uint64_t op = 0;
    if (s.ok() && (!DecodeStressValue(v, &vk, &op) || vk != key)) {
      Violation("Get(" + StressKeyName(key) + ") returned a corrupt value");
      return;
    }
    if (single_threaded() && !faults_active_) {
      const auto expected = oracle_.Latest(key);
      if (expected.exists != s.ok() ||
          (s.ok() && op != expected.op_index)) {
        char buf[160];
        snprintf(buf, sizeof(buf),
                 "Get(%s): expected %s op %" PRIu64 ", got %s op %" PRIu64,
                 StressKeyName(key).c_str(),
                 expected.exists ? "value" : "nothing", expected.op_index,
                 s.ok() ? "value" : "nothing", op);
        Violation(buf);
      }
      FoldST(s.ok() ? op : 0);
    }
  }

  void DoIterate(Random64& rng) {
    const uint32_t start = static_cast<uint32_t>(rng.Uniform(cfg_.num_keys));
    const int steps = 1 + static_cast<int>(rng.Uniform(10));
    lsm::ReadOptions ro;
    ro.verify_checksums = true;
    auto it = db_->NewIterator(ro);
    it->Seek(StressKeyName(start));
    iterator_ops_++;
    FoldST(0x500 | start);
    std::string prev;
    for (int i = 0; i < steps && it->Valid(); i++, it->Next()) {
      uint32_t k = 0, vk = 0;
      uint64_t op = 0;
      const std::string cur = it->key().ToString();
      if (!ParseStressKey(it->key(), &k) ||
          !DecodeStressValue(it->value(), &vk, &op) || vk != k) {
        Violation("iterator surfaced a corrupt entry at " + cur);
        return;
      }
      if (!prev.empty() && prev >= cur) {
        Violation("iterator order broken at " + cur);
        return;
      }
      if (single_threaded() && !faults_active_) {
        const auto expected = oracle_.Latest(k);
        if (!expected.exists || expected.op_index != op) {
          Violation("iterator shows stale entry for " + cur);
          return;
        }
      }
      prev = cur;
    }
    if (!it->status().ok()) {
      if (faults_active_) {
        read_faults_tolerated_++;
      } else {
        Violation("iterator failed: " + it->status().ToString());
      }
    }
  }

  void DoProperty() {
    property_checks_++;
    std::string v;
    if (!db_->GetProperty("elmo.stats", &v) || v.empty()) {
      Violation("property elmo.stats unavailable");
      return;
    }
    if (!db_->GetProperty("elmo.levelstats", &v) || v.empty()) {
      Violation("property elmo.levelstats unavailable");
    }
  }

  void DoFlush() {
    const uint64_t acked_before = last_acked_.load();
    Status s = db_->FlushMemTable();
    if (s.ok()) {
      flushes_++;
      // A completed flush made every previously acked write durable
      // (SST synced + MANIFEST synced before the call returns).
      if (single_threaded()) oracle_.RecordSyncPoint(acked_before);
    } else if (faults_active_ || !fault_->filesystem_active()) {
      write_failures_++;
      segment_stop_ = true;
    } else {
      Violation("FlushMemTable failed on a healthy filesystem: " +
                s.ToString());
    }
  }

  StressReport Finish() {
    StressReport r;
    {
      std::lock_guard<std::mutex> l(violation_mu_);
      r.ok = !violation_;
      r.first_divergence = first_divergence_;
    }
    r.ops_executed = ops_executed_;
    r.puts = puts_;
    r.deletes = deletes_;
    r.gets = gets_;
    r.iterator_ops = iterator_ops_;
    r.batches = batches_;
    r.sync_writes = sync_writes_;
    r.flushes = flushes_;
    r.property_checks = property_checks_;
    r.crash_cycles_done = crash_cycles_done_;
    r.transient_bursts_done = transient_bursts_done_;
    r.auto_resumes = auto_resumes_;
    r.manual_resumes = manual_resumes_;
    r.kill_point_fires = kill_point_fires_;
    r.write_failures = write_failures_;
    r.read_faults_tolerated = read_faults_tolerated_;
    r.final_live_keys = oracle_.LiveKeyCount();
    if (fault_ != nullptr) r.fault_counters = fault_->counters();
    r.schedule_hash = hash_;
    if (db_ != nullptr) db_->GetProperty("elmo.perf", &r.perf_breakdown);
    db_.reset();
    return r;
  }

  const StressConfig cfg_;
  ExpectedState oracle_;
  Random64 rng_;  // driver decisions: plans, drop modes, crash points
  std::vector<std::mutex> order_mu_;

  std::unique_ptr<SimEnv> sim_env_;
  std::unique_ptr<MemEnv> mem_env_;
  Env* base_env_ = nullptr;
  std::unique_ptr<FaultInjectionEnv> fault_;
  std::unique_ptr<lsm::DB> db_;

  std::atomic<uint64_t> next_op_{1};
  std::atomic<uint64_t> last_acked_{0};
  std::atomic<bool> segment_stop_{false};
  std::atomic<bool> faults_active_{false};
  std::atomic<bool> violation_{false};
  std::mutex violation_mu_;
  std::string first_divergence_;
  uint64_t hash_ = 1469598103934665603ull;

  std::atomic<uint64_t> ops_executed_{0}, puts_{0}, deletes_{0}, gets_{0},
      iterator_ops_{0}, batches_{0}, sync_writes_{0}, flushes_{0},
      property_checks_{0}, kill_point_fires_{0}, write_failures_{0},
      read_faults_tolerated_{0};
  int crash_cycles_done_ = 0;
  int transient_bursts_done_ = 0;
  uint64_t auto_resumes_ = 0;
  uint64_t manual_resumes_ = 0;
};

}  // namespace

StressReport RunStress(const StressConfig& config) {
  StressDriver driver(config);
  return driver.Run();
}

}  // namespace elmo::stress
