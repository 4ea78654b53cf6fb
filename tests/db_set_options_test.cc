// DB::SetOptions(): validation against the schema's runtime-mutable
// subset, all-or-nothing application, re-plumbing of dependent state,
// the options_change record trail (ticker, property, LOG event), and
// OPTIONS-file persistence across a reopen.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "env/mem_env.h"
#include "lsm/db.h"
#include "lsm/options_schema.h"
#include "util/ini.h"
#include "util/json.h"

namespace elmo::lsm {
namespace {

class DbSetOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    options_.env = env_.get();
    options_.create_if_missing = true;
    Open();
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }
  void Reopen() {
    db_.reset();
    Open();
  }

  // One live option's value, read back through the options property
  // (the schema's ini serialization of the DB's current config).
  std::string LiveOption(const std::string& name) {
    std::string text;
    EXPECT_TRUE(db_->GetProperty("elmo.options", &text));
    IniDoc doc;
    EXPECT_TRUE(IniDoc::Parse(text, &doc).ok());
    for (const char* section : {"DBOptions", "CFOptions", "TableOptions"}) {
      auto v = doc.Get(section, name);
      if (v.has_value()) return *v;
    }
    return "<absent>";
  }

  int64_t ChangeCount() {
    std::string text;
    EXPECT_TRUE(db_->GetProperty("elmo.options_changes", &text));
    json::Value doc;
    EXPECT_TRUE(json::Parse(text, &doc).ok());
    const json::Value* count = doc.Find("count");
    return count != nullptr ? count->as_int() : -1;
  }

  std::unique_ptr<MemEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbSetOptionsTest, AppliesMutableBatchAndRecords) {
  ASSERT_EQ(0, ChangeCount());
  Status s = db_->SetOptions({{"write_buffer_size", "1048576"},
                              {"max_background_jobs", "4"},
                              {"delayed_write_rate", "8388608"}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ("1048576", LiveOption("write_buffer_size"));
  EXPECT_EQ("4", LiveOption("max_background_jobs"));
  EXPECT_EQ("8388608", LiveOption("delayed_write_rate"));
  EXPECT_EQ(1, ChangeCount());

  // The ledger records each delta's from -> to.
  std::string text;
  ASSERT_TRUE(db_->GetProperty("elmo.options_changes", &text));
  EXPECT_NE(text.find("set_options"), std::string::npos);
  EXPECT_NE(text.find("write_buffer_size"), std::string::npos);
  EXPECT_NE(text.find("1048576"), std::string::npos);
}

TEST_F(DbSetOptionsTest, RejectsUnknownWithClearStatus) {
  Status s = db_->SetOptions({{"memtable_prefetch_depth", "4"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("unknown option"), std::string::npos);
  EXPECT_EQ(0, ChangeCount());
}

TEST_F(DbSetOptionsTest, RejectsDeprecatedWithPointer) {
  Status s = db_->SetOptions({{"soft_rate_limit", "0.5"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("deprecated"), std::string::npos);
  EXPECT_NE(s.ToString().find("delayed_write_rate"), std::string::npos);
}

TEST_F(DbSetOptionsTest, RejectsImmutableWithClearStatus) {
  // Registered and valid at open time, but not runtime-mutable.
  Status s = db_->SetOptions({{"compaction_style", "universal"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("immutable at runtime"), std::string::npos);
  EXPECT_EQ("level", LiveOption("compaction_style"));
}

TEST_F(DbSetOptionsTest, RejectsIllTypedAndOutOfRange) {
  EXPECT_TRUE(db_->SetOptions({{"write_buffer_size", "lots"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->SetOptions({{"max_write_buffer_number", "99999"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->SetOptions({}).IsInvalidArgument());
  EXPECT_EQ(0, ChangeCount());
}

TEST_F(DbSetOptionsTest, MixedBatchIsAllOrNothing) {
  // One valid entry next to one invalid: nothing may be applied.
  Status s = db_->SetOptions({{"write_buffer_size", "1048576"},
                              {"no_such_option", "1"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ("67108864", LiveOption("write_buffer_size"));
  EXPECT_EQ(0, ChangeCount());

  s = db_->SetOptions({{"max_background_jobs", "4"},
                       {"compaction_style", "universal"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ("2", LiveOption("max_background_jobs"));
  EXPECT_EQ(0, ChangeCount());
}

TEST_F(DbSetOptionsTest, NoOpBatchSucceedsWithoutRecording) {
  // Same values as the live config: accepted, but no change recorded.
  Status s = db_->SetOptions({{"write_buffer_size", "67108864"}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(0, ChangeCount());
}

TEST_F(DbSetOptionsTest, StallTriggerOrderingReimposed) {
  // A stop trigger below the slowdown trigger would wedge the stall
  // state machine; SetOptions re-imposes the open-time ordering.
  ASSERT_TRUE(db_->SetOptions({{"level0_stop_writes_trigger", "6"},
                               {"level0_slowdown_writes_trigger", "10"}})
                  .ok());
  EXPECT_EQ("10", LiveOption("level0_slowdown_writes_trigger"));
  EXPECT_EQ("10", LiveOption("level0_stop_writes_trigger"));
}

TEST_F(DbSetOptionsTest, ShrinkingBufferNumberClampsMergeCountLikeReopen) {
  // min_write_buffer_number_to_merge must stay below the buffer count;
  // shrinking the count live lands where a reopen with the same values
  // would: 2 buffers leave room to merge 1.
  options_.max_write_buffer_number = 4;
  options_.min_write_buffer_number_to_merge = 3;
  Reopen();
  ASSERT_EQ("3", LiveOption("min_write_buffer_number_to_merge"));
  ASSERT_TRUE(db_->SetOptions({{"max_write_buffer_number", "2"}}).ok());
  EXPECT_EQ("2", LiveOption("max_write_buffer_number"));
  EXPECT_EQ("1", LiveOption("min_write_buffer_number_to_merge"));
}

TEST_F(DbSetOptionsTest, SamplerCannotCrossZero) {
  // This DB opened with the sampler off; a live cadence cannot create
  // the sampler thread.
  Status s = db_->SetOptions({{"stats_sample_interval_ms", "100"}});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("sampler"), std::string::npos);
}

TEST_F(DbSetOptionsTest, ShrinkingBlockCacheEvictsDown) {
  const std::string value(1024, 'v');
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string out;
  for (int i = 0; i < 2000; i++) {
    db_->Get({}, "key" + std::to_string(i), &out);
  }
  std::string usage_text;
  ASSERT_TRUE(db_->GetProperty("elmo.block-cache-usage", &usage_text));
  ASSERT_TRUE(db_->SetOptions({{"block_cache_size", "65536"}}).ok());
  ASSERT_TRUE(db_->GetProperty("elmo.block-cache-usage", &usage_text));
  EXPECT_LE(std::stoull(usage_text), 65536ull);
}

TEST_F(DbSetOptionsTest, ChangeLandsInInfoLog) {
  ASSERT_TRUE(db_->SetOptions({{"max_subcompactions", "3"}}).ok());
  std::string log;
  ASSERT_TRUE(env_->ReadFileToString("/db/LOG", &log).ok());
  EXPECT_NE(log.find("options_change"), std::string::npos);
  EXPECT_NE(log.find("max_subcompactions"), std::string::npos);
}

TEST_F(DbSetOptionsTest, MutateReopenRecoversPersistedOptions) {
  ASSERT_TRUE(db_->SetOptions({{"write_buffer_size", "1048576"},
                               {"max_background_jobs", "6"}})
                  .ok());
  // Reopen with the caller's original (stale) Options plus the opt-in:
  // recovery must replay the last applied values from the OPTIONS file.
  options_.recover_persisted_options = true;
  Reopen();
  EXPECT_EQ("1048576", LiveOption("write_buffer_size"));
  EXPECT_EQ("6", LiveOption("max_background_jobs"));
  // The replay itself is a recorded change in the new incarnation.
  std::string text;
  ASSERT_TRUE(db_->GetProperty("elmo.options_changes", &text));
  EXPECT_NE(text.find("recovery"), std::string::npos);
}

TEST_F(DbSetOptionsTest, ReopenWithoutOptInKeepsCallerOptions) {
  ASSERT_TRUE(db_->SetOptions({{"write_buffer_size", "1048576"}}).ok());
  Reopen();  // recover_persisted_options stays false
  EXPECT_EQ("67108864", LiveOption("write_buffer_size"));
}

}  // namespace
}  // namespace elmo::lsm
