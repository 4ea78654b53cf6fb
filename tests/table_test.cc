// SST TableBuilder/Table: roundtrips, filter integration, block cache,
// compression, corruption detection.
#include <gtest/gtest.h>

#include <map>

#include "env/mem_env.h"
#include "table/table.h"
#include "table/table_builder.h"

namespace elmo {
namespace {

class TableTest : public ::testing::Test {
 protected:
  // Builds a table from `entries` and opens it with `ropts`.
  void BuildAndOpen(const std::map<std::string, std::string>& entries,
                    TableBuildOptions bopts, TableReadOptions ropts) {
    std::unique_ptr<WritableFile> wf;
    ASSERT_TRUE(env_.NewWritableFile("/t.sst", &wf).ok());
    TableBuilder builder(bopts, wf.get());
    for (const auto& [k, v] : entries) {
      builder.Add(k, v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    file_size_ = builder.FileSize();
    ASSERT_TRUE(wf->Close().ok());

    std::unique_ptr<RandomAccessFile> rf;
    ASSERT_TRUE(env_.NewRandomAccessFile("/t.sst", &rf).ok());
    ASSERT_TRUE(
        Table::Open(ropts, std::move(rf), file_size_, &table_).ok());
  }

  std::map<std::string, std::string> MakeEntries(int n) {
    std::map<std::string, std::string> entries;
    for (int i = 0; i < n; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d", i);
      entries[key] = "value" + std::to_string(i);
    }
    return entries;
  }

  // Opens a table built with `build_policy` (may be null) with cached
  // index/filter blocks and no filter policy; Gets must succeed.
  void ExpectCachedMetadataServesGets(const FilterPolicy* build_policy) {
    TableBuildOptions bopts;
    bopts.filter_policy = build_policy;
    TableReadOptions ropts;
    ropts.block_cache = NewLruCache(1 << 20);
    ropts.cache_index_and_filter_blocks = true;
    BuildAndOpen(MakeEntries(500), bopts, ropts);

    std::string v;
    Status s = table_->InternalGet(
        "key000123",
        [&](const Slice&, const Slice& val) { v = val.ToString(); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("value123", v);
    s = table_->InternalGet("key999999x", [](const Slice&, const Slice&) {});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  MemEnv env_;
  uint64_t file_size_ = 0;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, IterateRoundTrip) {
  auto entries = MakeEntries(2000);
  BuildAndOpen(entries, {}, {});
  auto iter = table_->NewIterator();
  auto mit = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, entries.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, entries.end());
}

TEST_F(TableTest, SeekAcrossBlocks) {
  auto entries = MakeEntries(2000);  // many 4K blocks
  BuildAndOpen(entries, {}, {});
  auto iter = table_->NewIterator();
  iter->Seek("key001234");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key001234", iter->key().ToString());
  iter->Seek("key0012345");  // between keys
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key001235", iter->key().ToString());
}

TEST_F(TableTest, InternalGetCallsHandlerOnMatch) {
  auto entries = MakeEntries(500);
  BuildAndOpen(entries, {}, {});
  std::string found_key, found_value;
  ASSERT_TRUE(table_
                  ->InternalGet("key000123",
                                [&](const Slice& k, const Slice& v) {
                                  found_key = k.ToString();
                                  found_value = v.ToString();
                                })
                  .ok());
  EXPECT_EQ("key000123", found_key);
  EXPECT_EQ("value123", found_value);
}

TEST_F(TableTest, BloomFilterSkipsAbsentKeys) {
  BloomFilterPolicy policy(10);
  TableBuildOptions bopts;
  bopts.filter_policy = &policy;
  TableReadOptions ropts;
  ropts.filter_policy = &policy;
  BuildAndOpen(MakeEntries(500), bopts, ropts);

  int calls = 0;
  ASSERT_TRUE(table_
                  ->InternalGet("key999999x",
                                [&](const Slice&, const Slice&) { calls++; })
                  .ok());
  EXPECT_EQ(0, calls);  // bloom filter rejected before any block read

  // Present keys still work.
  calls = 0;
  ASSERT_TRUE(table_
                  ->InternalGet("key000001",
                                [&](const Slice&, const Slice&) { calls++; })
                  .ok());
  EXPECT_EQ(1, calls);
}

TEST_F(TableTest, BlockCachePopulatedAndHit) {
  TableReadOptions ropts;
  ropts.block_cache = NewLruCache(1 << 20);
  BuildAndOpen(MakeEntries(2000), {}, ropts);

  std::string v;
  table_->InternalGet("key000100", [&](const Slice&, const Slice& val) {
    v = val.ToString();
  });
  auto stats1 = ropts.block_cache->GetStats();
  EXPECT_EQ(1u, stats1.inserts);

  // Same block again: served from cache.
  table_->InternalGet("key000101", [&](const Slice&, const Slice&) {});
  auto stats2 = ropts.block_cache->GetStats();
  EXPECT_EQ(stats2.hits, stats1.hits + 1);
  EXPECT_EQ(stats2.inserts, stats1.inserts);
}

// With index/filter blocks in the block cache, a table read without a
// filter policy must serve Gets: the filter lookup has no handle to
// follow, whether the table was built without a filter or with one the
// reader does not use.
TEST_F(TableTest, CachedMetadataNoFilterPolicyServesGets) {
  ExpectCachedMetadataServesGets(nullptr);
}

TEST_F(TableTest, CachedMetadataFilterDroppedOnReopenServesGets) {
  BloomFilterPolicy policy(10);
  ExpectCachedMetadataServesGets(&policy);
}

// The per-thread counts are taken at the lookup itself, so they match
// the cache's own counters op for op, including a miss whose block read
// then fails its checksum.
TEST_F(TableTest, ThreadCacheCountsMatchCacheStatsOnFailedReads) {
  TableReadOptions ropts;
  ropts.block_cache = NewLruCache(1 << 20);
  const auto entries = MakeEntries(2000);
  BuildAndOpen(entries, {}, {});
  auto flip = [](std::string* data) {
    (*data)[data->size() / 3] ^= 0x40;  // inside a data block
  };
  ASSERT_TRUE(env_.fs()->EditFile("/t.sst", flip).ok());
  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_.NewRandomAccessFile("/t.sst", &rf).ok());
  ASSERT_TRUE(Table::Open(ropts, std::move(rf), file_size_, &table_).ok());

  int failed = 0;
  for (const auto& [key, value] : entries) {
    const TableCacheCounts thread_before = ThreadTableCacheCounts();
    const Cache::Stats cache_before = ropts.block_cache->GetStats();
    if (!table_->InternalGet(key, [](const Slice&, const Slice&) {}).ok()) {
      failed++;
    }
    const TableCacheCounts thread_after = ThreadTableCacheCounts();
    const Cache::Stats cache_after = ropts.block_cache->GetStats();
    ASSERT_EQ(thread_after.hits - thread_before.hits,
              cache_after.hits - cache_before.hits);
    ASSERT_EQ(thread_after.misses - thread_before.misses,
              cache_after.misses - cache_before.misses);
    // Index pinned, no filter: one data-block lookup per Get.
    ASSERT_EQ(cache_after.hits + cache_after.misses,
              cache_before.hits + cache_before.misses + 1);
  }
  EXPECT_GT(failed, 0);
}

TEST_F(TableTest, RleCompressionRoundTrip) {
  TableBuildOptions bopts;
  bopts.compression = CompressionType::kRleCompression;
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; i++) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = std::string(200, 'R');  // highly compressible
  }
  BuildAndOpen(entries, bopts, {});
  auto iter = table_->NewIterator();
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(std::string(200, 'R'), iter->value().ToString());
    count++;
  }
  EXPECT_EQ(200, count);
  // Compressible payload: file much smaller than raw data.
  EXPECT_LT(file_size_, 200 * 200 / 2);
}

TEST_F(TableTest, EmptyTable) {
  BuildAndOpen({}, {}, {});
  auto iter = table_->NewIterator();
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TableTest, CorruptedFooterRejected) {
  ASSERT_TRUE(env_.WriteStringToFile(std::string(100, 'x'), "/bad.sst").ok());
  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_.NewRandomAccessFile("/bad.sst", &rf).ok());
  std::unique_ptr<Table> table;
  Status s = Table::Open({}, std::move(rf), 100, &table);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(TableTest, TruncatedFileRejected) {
  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_.WriteStringToFile("tiny", "/tiny.sst").ok());
  ASSERT_TRUE(env_.NewRandomAccessFile("/tiny.sst", &rf).ok());
  std::unique_ptr<Table> table;
  EXPECT_FALSE(Table::Open({}, std::move(rf), 4, &table).ok());
}

TEST_F(TableTest, FlippedBitDetectedByChecksum) {
  BuildAndOpen(MakeEntries(2000), {}, {});
  // Flip one byte in the middle of the data region.
  auto flip = [](std::string* data) { (*data)[data->size() / 3] ^= 0x40; };
  ASSERT_TRUE(env_.fs()->EditFile("/t.sst", flip).ok());
  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_.NewRandomAccessFile("/t.sst", &rf).ok());
  std::unique_ptr<Table> fresh;
  Status open_status = Table::Open({}, std::move(rf), file_size_, &fresh);
  if (open_status.ok()) {
    // The flipped byte is in some data block: scanning must surface a
    // checksum error rather than silently returning bad data.
    auto iter = fresh->NewIterator();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
    EXPECT_TRUE(iter->status().IsCorruption());
  } else {
    EXPECT_TRUE(open_status.IsCorruption());
  }
}

TEST(TableRle, CodecRoundTrip) {
  std::string runs = "aaaaabbbbbcccccdddddeeeee";
  std::string compressed;
  RleCompress(runs, &compressed);
  EXPECT_LT(compressed.size(), runs.size());
  std::string back;
  ASSERT_TRUE(RleUncompress(compressed, &back).ok());
  EXPECT_EQ(runs, back);
}

TEST(TableRle, TruncatedInputRejected) {
  std::string out;
  EXPECT_FALSE(RleUncompress(Slice("\x05", 1), &out).ok());
  EXPECT_FALSE(RleUncompress(Slice("\x00x", 2), &out).ok());
}

}  // namespace
}  // namespace elmo
