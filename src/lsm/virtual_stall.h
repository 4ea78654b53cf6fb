// VirtualStallState: the virtual-time view of background progress used
// when the DB runs on SimEnv (see DESIGN.md §4.1).
//
// Background jobs execute EAGERLY (engine state is always real), but
// each job is assigned a completion timestamp on the simulated core
// lanes. This class replays those completions against the virtual clock
// so the write path can ask "how many immutable memtables / L0 files
// exist *at virtual time t*" — which is what RocksDB's stall conditions
// actually gate on.
#pragma once

#include <cstdint>
#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <vector>

namespace elmo::lsm {

class VirtualStallState {
 public:
  // A memtable became immutable at virtual time `now`.
  void OnMemtableSwitch() { imm_count_++; }

  // A flush merging `imms_merged` immutable memtables and producing
  // `l0_outputs` L0 files will complete at `completion`.
  void OnFlushScheduled(int imms_merged, int l0_outputs,
                        uint64_t completion) {
    events_.push(Event{completion, -imms_merged, l0_outputs});
  }

  // A compaction consuming `l0_consumed` L0 files and producing
  // `l0_produced` new L0 files (universal style) completes at
  // `completion`.
  void OnCompactionScheduled(int l0_consumed, int l0_produced,
                             uint64_t completion) {
    if (l0_consumed == 0 && l0_produced == 0) return;
    events_.push(Event{completion, 0, l0_produced - l0_consumed});
  }

  // Apply every event with completion <= now.
  void ProcessUntil(uint64_t now) {
    while (!events_.empty() && events_.top().when <= now) {
      const Event& e = events_.top();
      imm_count_ += e.imm_delta;
      l0_count_ += e.l0_delta;
      events_.pop();
    }
    if (imm_count_ < 0) imm_count_ = 0;
    if (l0_count_ < 0) l0_count_ = 0;
  }

  int imm_count() const { return imm_count_; }
  int l0_count() const { return l0_count_; }

  // Earliest pending completion, or `now` when it is already due;
  // nullopt when nothing is pending.
  std::optional<uint64_t> NextEventAfter(uint64_t now) const {
    if (events_.empty()) return std::nullopt;
    return std::max(now, events_.top().when);
  }

  // Seed the L0 count at DB open (recovered files exist at t=0).
  void SetInitialL0(int n) { l0_count_ = n; }

  // --- per-file availability, for compaction input dependencies ---
  void SetFileAvailableAt(uint64_t file_number, uint64_t when) {
    file_avail_[file_number] = when;
  }
  uint64_t FileAvailableAt(uint64_t file_number) const {
    auto it = file_avail_.find(file_number);
    return it == file_avail_.end() ? 0 : it->second;
  }
  void ForgetFile(uint64_t file_number) { file_avail_.erase(file_number); }

 private:
  struct Event {
    uint64_t when;
    int imm_delta;
    int l0_delta;
    bool operator>(const Event& o) const { return when > o.when; }
  };

  int imm_count_ = 0;
  int l0_count_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::map<uint64_t, uint64_t> file_avail_;
};

}  // namespace elmo::lsm
