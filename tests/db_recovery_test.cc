// Crash-recovery scenarios: torn WAL tails, corrupted records, repeated
// reopen cycles, manifest integrity, obsolete-file GC.
#include <gtest/gtest.h>

#include <map>

#include "env/mem_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "util/random.h"

namespace elmo::lsm {
namespace {

class DbRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;
    Open();
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }
  void Close() { db_.reset(); }
  void Reopen() {
    Close();
    Open();
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get({}, key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERR";
    return value;
  }

  // Finds the newest WAL file in the db dir.
  std::string NewestWal() {
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren("/db", &children).ok());
    uint64_t best = 0;
    std::string best_name;
    for (const auto& c : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(c, &number, &type) &&
          type == FileType::kLogFile && number >= best) {
        best = number;
        best_name = c;
      }
    }
    return "/db/" + best_name;
  }

  void TruncateFile(const std::string& path, size_t remove_bytes) {
    auto truncate = [&](std::string* data) {
      ASSERT_GE(data->size(), remove_bytes);
      data->resize(data->size() - remove_bytes);
    };
    ASSERT_TRUE(env_->fs()->EditFile(path, truncate).ok());
  }

  void FlipByte(const std::string& path, size_t pos) {
    auto flip = [&](std::string* data) {
      ASSERT_LT(pos, data->size());
      (*data)[pos] ^= 0xff;
    };
    ASSERT_TRUE(env_->fs()->EditFile(path, flip).ok());
  }

  void AppendBytes(const std::string& path, const std::string& bytes) {
    auto append = [&](std::string* data) { data->append(bytes); };
    ASSERT_TRUE(env_->fs()->EditFile(path, append).ok());
  }

  size_t SizeOf(const std::string& path) {
    uint64_t size = 0;
    EXPECT_TRUE(env_->GetFileSize(path, &size).ok());
    return static_cast<size_t>(size);
  }

  std::string NewestFileOfType(FileType want) {
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren("/db", &children).ok());
    uint64_t best = 0;
    std::string best_name;
    for (const auto& c : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(c, &number, &type) && type == want &&
          number >= best) {
        best = number;
        best_name = c;
      }
    }
    return "/db/" + best_name;
  }

  std::unique_ptr<MemEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbRecoveryTest, TornWalTailLosesOnlyLastWrite) {
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Put({}, "b", "2").ok());
  std::string wal = NewestWal();
  Close();
  // Chop a few bytes off the WAL tail: the crash tore the last record.
  TruncateFile(wal, 3);
  Open();
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("NOT_FOUND", Get("b"));
}

TEST_F(DbRecoveryTest, CorruptedFinalWalRecordIsTornTail) {
  // A torn write that garbles the *last* record of the WAL is what a
  // power cut looks like: recovery must treat it as a clean EOF and
  // lose only the torn write, not refuse to open.
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Put({}, "b", "2").ok());
  std::string wal = NewestWal();
  Close();
  FlipByte(wal, SizeOf(wal) - 1);
  Open();
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("NOT_FOUND", Get("b"));
}

TEST_F(DbRecoveryTest, MidWalCorruptionStillFailsOpen) {
  // Corruption in the *middle* of the log — valid records follow the bad
  // one — is bit rot, not a torn tail. Silently skipping it would drop
  // an acknowledged write while keeping later ones, so Open must fail.
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Put({}, "b", "2").ok());
  std::string wal = NewestWal();
  Close();
  FlipByte(wal, 8);  // inside the first record's payload
  std::unique_ptr<DB> db2;
  Status s = DB::Open(options_, "/db", &db2);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(DbRecoveryTest, ManifestTornTailTolerated) {
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  Close();
  std::string manifest = NewestFileOfType(FileType::kDescriptorFile);
  // Append a half-written record: garbage CRC, len=3, kFullType header
  // plus its 3 payload bytes, exactly reaching EOF.
  AppendBytes(manifest,
              std::string("\xde\xad\xbe\xef\x03\x00\x01", 7) + "xyz");
  Open();
  EXPECT_EQ("v", Get("k"));
}

TEST_F(DbRecoveryTest, ManifestMidCorruptionFailsOpen) {
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  // The flush appends a version edit, so the MANIFEST holds at least two
  // records and the flipped byte below cannot read as a torn tail.
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  Close();
  std::string manifest = NewestFileOfType(FileType::kDescriptorFile);
  FlipByte(manifest, 8);
  std::unique_ptr<DB> db2;
  Status s = DB::Open(options_, "/db", &db2);
  EXPECT_FALSE(s.ok()) << s.ToString();
}

TEST_F(DbRecoveryTest, RepeatedReopenCyclesStable) {
  std::map<std::string, std::string> model;
  Random64 rng(5);
  for (int cycle = 0; cycle < 8; cycle++) {
    for (int i = 0; i < 300; i++) {
      std::string key = "k" + std::to_string(rng.Uniform(500));
      std::string value = "c" + std::to_string(cycle) + "-" +
                          std::to_string(i);
      ASSERT_TRUE(db_->Put({}, key, value).ok());
      model[key] = value;
    }
    Reopen();
    for (int probe = 0; probe < 50; probe++) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_EQ(it->second, Get(it->first))
          << "cycle " << cycle << " key " << it->first;
    }
  }
}

TEST_F(DbRecoveryTest, RecoveryFlushesOversizedWalToL0) {
  // Write several memtables' worth and drain: the flushed ones are in
  // L0 or below, the active one only in the WAL. Reopen: the recovery
  // path must spill the logged writes to new L0 tables.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db_->Put({}, "key" + std::to_string(i), std::string(100, 'v'))
            .ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  std::string n0;
  ASSERT_TRUE(db_->GetProperty("elmo.num-files-at-level0", &n0));
  const int l0_before_close = std::stoi(n0);
  // No compaction may move the recovered tables out of L0 before they
  // are counted.
  options_.disable_auto_compactions = true;
  Reopen();
  EXPECT_EQ(std::string(100, 'v'), Get("key1500"));
  ASSERT_TRUE(db_->GetProperty("elmo.num-files-at-level0", &n0));
  EXPECT_GE(std::stoi(n0), 1);
  EXPECT_GT(std::stoi(n0), l0_before_close);
}

TEST_F(DbRecoveryTest, ObsoleteFilesRemovedAfterCompaction) {
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(
        db_->Put({}, "key" + std::to_string(i), std::string(64, 'v')).ok());
  }
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Count live SSTs vs dir contents: no orphaned tables.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  int ssts = 0, wals = 0, manifests = 0;
  for (const auto& c : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(c, &number, &type)) continue;
    if (type == FileType::kTableFile) ssts++;
    if (type == FileType::kLogFile) wals++;
    if (type == FileType::kDescriptorFile) manifests++;
  }
  std::string summary;
  ASSERT_TRUE(db_->GetProperty("elmo.levelsummary", &summary));
  // After full compaction, very few files should remain.
  EXPECT_LE(ssts, 12) << summary;
  EXPECT_LE(wals, 2);
  EXPECT_LE(manifests, 2);
}

TEST_F(DbRecoveryTest, MissingCurrentFailsCleanly) {
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  Close();
  ASSERT_TRUE(env_->RemoveFile("/db/CURRENT").ok());
  options_.create_if_missing = false;
  std::unique_ptr<DB> db2;
  Status s = DB::Open(options_, "/db", &db2);
  EXPECT_FALSE(s.ok());
}

TEST_F(DbRecoveryTest, SequenceNumbersMonotoneAcrossReopen) {
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());
  const Snapshot* before = db_->GetSnapshot();
  db_->ReleaseSnapshot(before);
  Reopen();
  // New writes after reopen must still shadow old ones.
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());
  EXPECT_EQ("v2", Get("k"));
  Reopen();
  EXPECT_EQ("v2", Get("k"));
}

TEST_F(DbRecoveryTest, BatchAtomicityAcrossCrash) {
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Put("y", "2");
  batch.Put("z", "3");
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  Reopen();
  // The batch is one WAL record: all-or-nothing.
  EXPECT_EQ("1", Get("x"));
  EXPECT_EQ("2", Get("y"));
  EXPECT_EQ("3", Get("z"));
}

TEST_F(DbRecoveryTest, LargeValueSpanningWalBlocks) {
  std::string big(200000, 'W');  // spans multiple 32 KiB WAL blocks
  ASSERT_TRUE(db_->Put({}, "big", big).ok());
  Reopen();
  EXPECT_EQ(big, Get("big"));
}

TEST_F(DbRecoveryTest, SyncedWritesSurvive) {
  WriteOptions sync_opts;
  sync_opts.sync = true;
  ASSERT_TRUE(db_->Put(sync_opts, "durable", "yes").ok());
  EXPECT_GT(db_->stats().Get(Ticker::kWalSyncs), 0u);
  Reopen();
  EXPECT_EQ("yes", Get("durable"));
}

TEST_F(DbRecoveryTest, DisableWalWritesLostOnCrashButDbHealthy) {
  WriteOptions no_wal;
  no_wal.disable_wal = true;
  ASSERT_TRUE(db_->Put(no_wal, "volatile", "gone").ok());
  ASSERT_TRUE(db_->Put({}, "logged", "kept").ok());
  EXPECT_EQ("gone", Get("volatile"));
  Reopen();
  // The paper's safeguard blacklists disable_wal for exactly this
  // reason: unflushed non-WAL writes evaporate.
  EXPECT_EQ("NOT_FOUND", Get("volatile"));
  EXPECT_EQ("kept", Get("logged"));
}

}  // namespace
}  // namespace elmo::lsm
