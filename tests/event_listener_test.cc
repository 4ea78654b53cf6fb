// EventListener: flush/compaction/stall callbacks must fire with
// correct payloads on both the real (MemEnv) and simulated (SimEnv)
// execution paths.
#include "lsm/event_listener.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "env/mem_env.h"
#include "env/sim_env.h"
#include "lsm/db.h"
#include "lsm/span.h"

namespace elmo::lsm {
namespace {

// One-shot flag another thread can wait on with a deadline.
class Latch {
 public:
  void Set() {
    std::lock_guard<std::mutex> l(mu_);
    set_ = true;
    cv_.notify_all();
  }
  // Returns whether the latch was set within `timeout`.
  bool WaitFor(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, timeout, [this] { return set_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

// Records every event payload for later inspection.
class RecordingListener : public EventListener {
 public:
  void OnFlushBegin(const FlushJobInfo& info) override {
    flush_begin.push_back(info);
  }
  void OnFlushCompleted(const FlushJobInfo& info) override {
    flush_completed.push_back(info);
  }
  void OnCompactionBegin(const CompactionJobInfo& info) override {
    compaction_begin.push_back(info);
  }
  void OnCompactionCompleted(const CompactionJobInfo& info) override {
    compaction_completed.push_back(info);
  }
  void OnStallConditionChanged(const StallInfo& info) override {
    stall_changes.push_back(info);
    // Callbacks run with the DB mutex held: signal, never block.
    if (info.current == StallCondition::kStopped) stop_seen.Set();
  }
  void OnWriteStop(const StallInfo& info) override {
    write_stops.push_back(info);
  }

  std::vector<FlushJobInfo> flush_begin;
  std::vector<FlushJobInfo> flush_completed;
  std::vector<CompactionJobInfo> compaction_begin;
  std::vector<CompactionJobInfo> compaction_completed;
  std::vector<StallInfo> stall_changes;
  std::vector<StallInfo> write_stops;
  Latch stop_seen;
};

// Settings under which writes outrun L0 compaction: tiny memtables,
// enough memtable slots that flushes never stop writes, and an L0 stop
// at three files with no slowdown band below it.
Options L0StopOptions() {
  Options o;
  o.create_if_missing = true;
  o.write_buffer_size = 64 << 10;
  o.max_write_buffer_number = 6;
  o.level0_file_num_compaction_trigger = 2;
  o.level0_slowdown_writes_trigger = 3;
  o.level0_stop_writes_trigger = 3;
  o.max_background_compactions = 1;
  return o;
}

// Counts the stall-wait spans in a span trace whose stall_reason is
// `reason`.
int CountStallSpans(Env* env, const std::string& path, StallReason reason) {
  SpanTraceReader reader(env);
  EXPECT_TRUE(reader.Open(path).ok());
  int n = 0;
  SpanTree tree;
  bool eof = false;
  while (reader.Next(&tree, &eof).ok() && !eof) {
    for (const SpanNode& span : tree.spans) {
      if (span.kind != SpanKind::kStallWait) continue;
      for (const auto& [tag, value] : span.annotations) {
        if (tag == SpanTag::kStallReason &&
            value == static_cast<uint64_t>(reason)) {
          n++;
        }
      }
    }
  }
  return n;
}

// An L0 stop must surface as OnWriteStop with a positive wait, the
// L0-stop ticker and a stall-wait span tagged with the reason.
void ExpectL0Stops(DB* db, Env* env, const RecordingListener& listener) {
  bool saw_l0_stop = false;
  for (const StallInfo& info : listener.write_stops) {
    if (info.reason != StallReason::kL0FileCount) continue;
    saw_l0_stop = true;
    EXPECT_EQ(StallCondition::kStopped, info.current);
    EXPECT_GT(info.wait_micros, 0u);
  }
  EXPECT_TRUE(saw_l0_stop);
  EXPECT_GE(db->stats().Get(Ticker::kStallL0StopCount), 1u);
  EXPECT_GE(CountStallSpans(env, "/span.trace", StallReason::kL0FileCount),
            1);
}

class EventListenerTest : public ::testing::Test {
 protected:
  void Open() {
    env_ = std::make_unique<MemEnv>();
    options_.env = env_.get();
    options_.create_if_missing = true;
    listener_ = std::make_shared<RecordingListener>();
    options_.listeners.push_back(listener_);
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  // Writes a permutation of 0..n-1 so files overlap and compactions
  // actually rewrite data (sequential keys would all trivially move).
  void Fill(int n, int value_size = 256) {
    std::string value(value_size, 'v');
    for (int i = 0; i < n; i++) {
      char key[24];
      snprintf(key, sizeof(key), "%016d", i * 7919 % n);
      ASSERT_TRUE(db_->Put({}, Slice(key, 16), value).ok());
    }
  }

  std::unique_ptr<MemEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
  std::shared_ptr<RecordingListener> listener_;
};

TEST_F(EventListenerTest, FlushEventsCarryBytesAndLevel) {
  Open();
  Fill(100);
  ASSERT_TRUE(db_->FlushMemTable().ok());

  ASSERT_EQ(1u, listener_->flush_begin.size());
  ASSERT_EQ(1u, listener_->flush_completed.size());
  const FlushJobInfo& info = listener_->flush_completed[0];
  EXPECT_EQ(1, info.imms_merged);
  EXPECT_EQ(0, info.output_level);
  EXPECT_GT(info.file_number, 0u);
  EXPECT_GT(info.output_bytes, 0u);
  EXPECT_EQ(db_->stats().Get(Ticker::kFlushBytes), info.output_bytes);
}

TEST_F(EventListenerTest, ManualCompactionReportsManualReason) {
  Open();
  Fill(200);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());

  ASSERT_FALSE(listener_->compaction_completed.empty());
  uint64_t total_output = 0;
  for (const CompactionJobInfo& info : listener_->compaction_completed) {
    EXPECT_EQ(CompactionReason::kManual, info.reason);
    EXPECT_GT(info.num_input_files, 0);
    EXPECT_GE(info.output_level, info.level);
    total_output += info.output_bytes;
  }
  EXPECT_GT(total_output, 0u);
  EXPECT_EQ(listener_->compaction_begin.size(),
            listener_->compaction_completed.size());
}

TEST_F(EventListenerTest, BackgroundCompactionReportsLevelReason) {
  options_.write_buffer_size = 32 << 10;
  options_.max_bytes_for_level_base = 128 << 10;
  Open();
  Fill(5000, 128);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  ASSERT_FALSE(listener_->compaction_completed.empty());
  bool saw_rewrite = false;
  for (const CompactionJobInfo& info : listener_->compaction_completed) {
    EXPECT_EQ(CompactionReason::kLevelScore, info.reason);
    if (!info.trivial_move) {
      saw_rewrite = true;
      EXPECT_GT(info.input_bytes, 0u);
      EXPECT_GT(info.output_bytes, 0u);
      EXPECT_GT(info.num_output_files, 0);
    }
  }
  EXPECT_TRUE(saw_rewrite);
}

TEST_F(EventListenerTest, UniversalCompactionReportsUniversalReason) {
  options_.compaction_style = CompactionStyle::kUniversal;
  options_.write_buffer_size = 32 << 10;
  options_.level0_file_num_compaction_trigger = 4;
  Open();
  Fill(4000, 128);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  ASSERT_FALSE(listener_->compaction_completed.empty());
  for (const CompactionJobInfo& info : listener_->compaction_completed) {
    EXPECT_EQ(CompactionReason::kUniversal, info.reason);
  }
}

TEST_F(EventListenerTest, StallTransitionsFireUnderMemtablePressure) {
  options_.write_buffer_size = 16 << 10;
  options_.max_write_buffer_number = 2;
  options_.max_background_flushes = 1;
  Open();
  // Hold the only flush thread until a writer stops: the first flush
  // queues behind the hold, so the next full memtable must stop writes
  // rather than race the flush. The deadline turns a regression that
  // never stops into a failed assertion below instead of a hang.
  env_->Schedule(
      [listener = listener_] {
        listener->stop_seen.WaitFor(std::chrono::seconds(30));
      },
      JobPriority::kHigh);
  Fill(5000, 200);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Tiny buffers force memtable-limit stops; each stop must surface as
  // a kNormal -> kStopped transition plus an OnWriteStop with the wait.
  ASSERT_FALSE(listener_->write_stops.empty());
  for (const StallInfo& info : listener_->write_stops) {
    EXPECT_EQ(StallCondition::kStopped, info.current);
    EXPECT_EQ(StallReason::kMemtableLimit, info.reason);
  }
  ASSERT_FALSE(listener_->stall_changes.empty());
  bool saw_stop = false, saw_recover = false;
  for (const StallInfo& info : listener_->stall_changes) {
    EXPECT_NE(info.previous, info.current);
    if (info.current == StallCondition::kStopped) {
      saw_stop = true;
      EXPECT_EQ(StallReason::kMemtableLimit, info.reason);
    }
    if (info.current == StallCondition::kNormal) saw_recover = true;
  }
  EXPECT_TRUE(saw_stop);
  EXPECT_TRUE(saw_recover);
  EXPECT_EQ(listener_->write_stops.size(),
            db_->stats().Get(Ticker::kStallMemtableStopCount));
}

TEST_F(EventListenerTest, L0StopFiresWhileCompactionIsHeld) {
  options_ = L0StopOptions();
  Open();
  // Hold the only compaction thread until a writer stops on the L0 file
  // count: flushes keep landing in L0 while the compaction that would
  // drain it queues behind the hold. The stop ticker counts before the
  // writer waits, so the hold ends only once the stop is under way,
  // whether or not a memtable stop came first. The deadline turns a
  // regression that never stops into a failed assertion, not a hang.
  env_->Schedule(
      [db = db_.get()] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (db->stats().Get(Ticker::kStallL0StopCount) == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      JobPriority::kLow);
  ASSERT_TRUE(db_->StartSpanTrace("/span.trace", {0, 0}).ok());
  Fill(5000, 200);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  ASSERT_TRUE(db_->EndSpanTrace().ok());
  ExpectL0Stops(db_.get(), env_.get(), *listener_);
}

// The same callbacks must fire when the engine runs on the simulated
// clock: durations come from the job meter, not wall time.
TEST(EventListenerSimTest, FlushAndCompactionEventsUnderSimEnv) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd());
  auto env = std::make_unique<SimEnv>(hw, 42);
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 32 << 10;
  options.max_bytes_for_level_base = 128 << 10;
  auto listener = std::make_shared<RecordingListener>();
  options.listeners.push_back(listener);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const std::string value(256, 'v');
  for (int i = 0; i < 5000; i++) {
    char key[24];
    snprintf(key, sizeof(key), "%016d", i * 7919 % 5000);
    ASSERT_TRUE(db->Put({}, Slice(key, 16), value).ok());
  }
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());

  ASSERT_FALSE(listener->flush_completed.empty());
  ASSERT_FALSE(listener->compaction_completed.empty());
  // Sim job meter charges virtual time to every flush; compaction
  // durations are virtual too (trivial moves may cost ~0).
  for (const FlushJobInfo& info : listener->flush_completed) {
    EXPECT_GT(info.duration_micros, 0u);
    EXPECT_GT(info.output_bytes, 0u);
  }
  bool some_compaction_took_time = false;
  for (const CompactionJobInfo& info : listener->compaction_completed) {
    if (info.duration_micros > 0) some_compaction_took_time = true;
  }
  EXPECT_TRUE(some_compaction_took_time);
  EXPECT_EQ(db->stats().Get(Ticker::kFlushCount),
            listener->flush_completed.size());
  EXPECT_EQ(db->stats().Get(Ticker::kCompactionCount) +
                db->stats().Get(Ticker::kTrivialMoveCount),
            listener->compaction_completed.size());
}

// On the simulated clock an L0 stop waits for the virtual completion
// of the compaction booked on the HDD's single compaction lane.
TEST(EventListenerSimTest, L0StopUnderSimEnv) {
  auto hw = HardwareProfile::Make(4, 4, DeviceModel::SataHdd());
  auto env = std::make_unique<SimEnv>(hw, 42);
  Options options = L0StopOptions();
  options.env = env.get();
  auto listener = std::make_shared<RecordingListener>();
  options.listeners.push_back(listener);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(db->StartSpanTrace("/span.trace", {0, 0}).ok());
  const std::string value(200, 'v');
  for (int i = 0; i < 5000; i++) {
    char key[24];
    snprintf(key, sizeof(key), "%016d", i * 7919 % 5000);
    ASSERT_TRUE(db->Put({}, Slice(key, 16), value).ok());
  }
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  ASSERT_TRUE(db->EndSpanTrace().ok());
  ExpectL0Stops(db.get(), env.get(), *listener);
}

}  // namespace
}  // namespace elmo::lsm
