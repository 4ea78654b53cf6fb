// Merging iterator + DBIter semantics over synthetic children.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "env/mem_env.h"
#include "lsm/db.h"
#include "lsm/db_iter.h"
#include "lsm/filename.h"
#include "lsm/merger.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "util/random.h"

namespace elmo::lsm {
namespace {

// Build a Block-backed iterator from sorted (key, value) pairs.
struct BlockHolder {
  std::unique_ptr<Block> block;
  std::unique_ptr<Iterator> NewIter(const Comparator* cmp) {
    return block->NewIterator(cmp);
  }
};

BlockHolder MakeBlock(const std::map<std::string, std::string>& kvs) {
  BlockBuilder builder(4);
  for (const auto& [k, v] : kvs) builder.Add(k, v);
  BlockHolder holder;
  holder.block = std::make_unique<Block>(builder.Finish().ToString());
  return holder;
}

TEST(Merger, InterleavesSortedStreams) {
  auto b1 = MakeBlock({{"a", "1"}, {"c", "3"}, {"e", "5"}});
  auto b2 = MakeBlock({{"b", "2"}, {"d", "4"}, {"f", "6"}});
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(b1.NewIter(BytewiseComparator()));
  children.push_back(b2.NewIter(BytewiseComparator()));
  auto merged =
      NewMergingIterator(BytewiseComparator(), std::move(children));

  std::string out;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    out += merged->key().ToString() + merged->value().ToString();
  }
  EXPECT_EQ("a1b2c3d4e5f6", out);
}

TEST(Merger, TiesPreferEarlierChild) {
  // Same key in both children: the earlier (newer) child must win the
  // tie in forward order.
  auto newer = MakeBlock({{"k", "new"}});
  auto older = MakeBlock({{"k", "old"}});
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(newer.NewIter(BytewiseComparator()));
  children.push_back(older.NewIter(BytewiseComparator()));
  auto merged =
      NewMergingIterator(BytewiseComparator(), std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("new", merged->value().ToString());
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("old", merged->value().ToString());
}

TEST(Merger, BackwardIteration) {
  auto b1 = MakeBlock({{"a", "1"}, {"c", "3"}});
  auto b2 = MakeBlock({{"b", "2"}, {"d", "4"}});
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(b1.NewIter(BytewiseComparator()));
  children.push_back(b2.NewIter(BytewiseComparator()));
  auto merged =
      NewMergingIterator(BytewiseComparator(), std::move(children));
  std::string out;
  for (merged->SeekToLast(); merged->Valid(); merged->Prev()) {
    out += merged->key().ToString();
  }
  EXPECT_EQ("dcba", out);
}

TEST(Merger, DirectionSwitchMidStream) {
  auto b1 = MakeBlock({{"a", "1"}, {"c", "3"}});
  auto b2 = MakeBlock({{"b", "2"}, {"d", "4"}});
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(b1.NewIter(BytewiseComparator()));
  children.push_back(b2.NewIter(BytewiseComparator()));
  auto merged =
      NewMergingIterator(BytewiseComparator(), std::move(children));
  merged->Seek("c");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("c", merged->key().ToString());
  merged->Prev();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("b", merged->key().ToString());
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("c", merged->key().ToString());
}

TEST(Merger, SingleChildPassesThrough) {
  auto b = MakeBlock({{"x", "1"}});
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(b.NewIter(BytewiseComparator()));
  auto merged =
      NewMergingIterator(BytewiseComparator(), std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("x", merged->key().ToString());
}

TEST(Merger, NoChildrenIsEmpty) {
  auto merged = NewMergingIterator(BytewiseComparator(), {});
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
  EXPECT_TRUE(merged->status().ok());
}

// ---- Seeded differential test against a std::map-ordered reference ----

// Every child's entries, ordered by key and then by child: on a tie the
// earlier child comes first.
using RefMap = std::map<std::pair<std::string, size_t>, std::string>;

// The merge's contract as a cursor over RefMap's order. Without a
// direction change Next/Prev step one entry. A direction change
// re-positions the other children around the current key (leveldb's
// rule; internal keys never tie), so it lands on the first entry past
// the current key (Next) or the last one before it (Prev).
class RefMerge {
 public:
  explicit RefMerge(const RefMap& entries) {
    for (const auto& [key_child, value] : entries) {
      entries_.push_back({key_child.first, value});
    }
  }
  bool Valid() const { return pos_ >= 0 && pos_ < Size(); }
  const std::string& Key() const { return entries_[pos_].key; }
  const std::string& Value() const { return entries_[pos_].value; }
  void SeekToFirst() {
    pos_ = 0;
    forward_ = true;
  }
  void SeekToLast() {
    pos_ = Size() - 1;
    forward_ = false;
  }
  void Seek(const std::string& t) {
    pos_ = 0;
    while (pos_ < Size() && entries_[pos_].key < t) pos_++;
    forward_ = true;
  }
  void Next() {
    if (forward_) {
      pos_++;
      return;
    }
    const std::string k = Key();
    pos_ = 0;
    while (pos_ < Size() && entries_[pos_].key <= k) pos_++;
    forward_ = true;
  }
  void Prev() {
    if (!forward_) {
      pos_--;
      return;
    }
    const std::string k = Key();
    pos_ = Size() - 1;
    while (pos_ >= 0 && entries_[pos_].key >= k) pos_--;
    forward_ = false;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  int Size() const { return static_cast<int>(entries_.size()); }
  std::vector<Entry> entries_;
  int pos_ = -1;
  bool forward_ = true;
};

std::string KeyOf(uint64_t i) {
  char buf[8];
  snprintf(buf, sizeof(buf), "k%03llu", static_cast<unsigned long long>(i));
  return buf;
}

TEST(Merger, MatchesReferenceOverSeededChildren) {
  const Comparator* cmp = BytewiseComparator();
  for (uint64_t seed = 1; seed <= 200; seed++) {
    Random64 rng(seed);
    const size_t n_children = 1 + rng.Uniform(6);
    RefMap entries;
    std::vector<BlockHolder> blocks;  // outlive the iterators below
    std::vector<std::vector<size_t>> child_blocks(n_children);
    for (size_t c = 0; c < n_children; c++) {
      // Empty, single-entry and dense children; keys from a small
      // universe so that children tie often.
      const uint64_t shape = rng.Uniform(5);
      const uint64_t count = shape < 2 ? shape : rng.Uniform(30);
      std::map<std::string, std::string> kvs;
      for (uint64_t i = 0; i < count; i++) {
        const std::string k = KeyOf(rng.Uniform(40));
        kvs[k] = k + "@" + std::to_string(c);
      }
      for (const auto& [k, v] : kvs) entries[{k, c}] = v;
      // Some children are sorted runs: their keys cut into several
      // blocks, walked by one run iterator.
      const uint64_t pieces = rng.Uniform(3) == 0 ? 1 + rng.Uniform(4) : 1;
      std::vector<std::map<std::string, std::string>> parts(pieces);
      size_t i = 0;
      for (const auto& kv : kvs) parts[i++ * pieces / kvs.size()].insert(kv);
      for (const auto& part : parts) {
        child_blocks[c].push_back(blocks.size());
        blocks.push_back(MakeBlock(part));
      }
    }
    std::vector<std::unique_ptr<Iterator>> children;
    for (const auto& ids : child_blocks) {
      if (ids.size() == 1) {
        children.push_back(blocks[ids[0]].NewIter(cmp));
        continue;
      }
      std::vector<std::unique_ptr<Iterator>> files;
      for (size_t id : ids) files.push_back(blocks[id].NewIter(cmp));
      children.push_back(NewSortedRunIterator(std::move(files)));
    }
    auto merged = NewMergingIterator(cmp, std::move(children));
    RefMerge ref(entries);

    for (int step = 0; step < 300; step++) {
      const uint64_t op = rng.Uniform(10);
      if (op == 0 || (!ref.Valid() && op < 5)) {
        merged->SeekToFirst();
        ref.SeekToFirst();
      } else if (op == 1 || !ref.Valid()) {
        merged->SeekToLast();
        ref.SeekToLast();
      } else if (op == 2) {
        const std::string t = KeyOf(rng.Uniform(42));
        merged->Seek(t);
        ref.Seek(t);
      } else if (op < 6) {
        merged->Next();
        ref.Next();
      } else {
        merged->Prev();
        ref.Prev();
      }
      ASSERT_EQ(ref.Valid(), merged->Valid())
          << "seed " << seed << " step " << step;
      if (ref.Valid()) {
        ASSERT_EQ(ref.Key(), merged->key().ToString())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(ref.Value(), merged->value().ToString())
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_TRUE(merged->status().ok());
  }
}

TEST(Merger, SortedRunWalksFilesInOrder) {
  auto f1 = MakeBlock({{"a", "1"}, {"b", "2"}});
  auto f2 = MakeBlock({});
  auto f3 = MakeBlock({{"c", "3"}});
  auto f4 = MakeBlock({{"d", "4"}, {"e", "5"}});
  std::vector<std::unique_ptr<Iterator>> files;
  for (auto* f : {&f1, &f2, &f3, &f4}) {
    files.push_back(f->NewIter(BytewiseComparator()));
  }
  auto run = NewSortedRunIterator(std::move(files));
  std::string out;
  for (run->SeekToFirst(); run->Valid(); run->Next()) {
    out += run->key().ToString();
  }
  out += "|";
  for (run->SeekToLast(); run->Valid(); run->Prev()) {
    out += run->key().ToString();
  }
  run->Seek("bb");
  ASSERT_TRUE(run->Valid());
  out += "|" + run->key().ToString();
  run->Prev();
  out += run->key().ToString();
  run->Next();
  out += run->key().ToString();
  EXPECT_EQ("abcde|edcba|cbc", out);
}

// A sorted run hands a failed file's error to the compaction: the job
// fails with Corruption and installs nothing.
TEST(Merger, CorruptFileInSortedRunFailsCompaction) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.paranoid_checks = true;  // verify block checksums on read
  options.disable_auto_compactions = true;
  options.num_levels = 2;  // CompactRange stops at L1
  options.write_buffer_size = 4 << 20;
  options.target_file_size_base = 16 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const std::string value(200, 'v');
  for (int round = 0; round < 2; round++) {
    // Two overlapping L0 files, so CompactRange merges (no trivial move)
    // and cuts the L1 run into several files.
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(db->Put({}, KeyOf(i), value).ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  ASSERT_TRUE(db->CompactRange(nullptr, nullptr).ok());
  for (int i = 0; i < 400; i += 7) {
    ASSERT_TRUE(db->Put({}, KeyOf(i), "new").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());  // one L0 file over the run

  auto files_at = [&](int level) {
    std::vector<std::string> out;
    std::string sstables;
    EXPECT_TRUE(db->GetProperty("elmo.sstables", &sstables));
    const std::string tag = "L" + std::to_string(level) + " #";
    size_t p = 0;
    while ((p = sstables.find(tag, p)) != std::string::npos) {
      p += tag.size();
      out.push_back(sstables.substr(p, sstables.find(' ', p) - p));
    }
    return out;
  };
  const auto l0 = files_at(0);
  const auto l1 = files_at(1);
  ASSERT_EQ(1u, l0.size());
  ASSERT_GE(l1.size(), 3u);
  std::vector<std::string> before;
  ASSERT_TRUE(env.GetChildren("/db", &before).ok());

  // Flip a byte inside a data block of the run's middle file.
  const std::string name =
      TableFileName("/db", std::stoull(l1[l1.size() / 2]));
  auto flip = [](std::string* data) { (*data)[data->size() / 4] ^= 0x40; };
  ASSERT_TRUE(env.fs()->EditFile(name, flip).ok());

  Status s = db->CompactRange(nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(l0, files_at(0));
  EXPECT_EQ(l1, files_at(1));
  std::vector<std::string> after;
  ASSERT_TRUE(env.GetChildren("/db", &after).ok());
  EXPECT_EQ(before, after);
}

// ---- DBIter over hand-built internal keys ----

std::string IK(const std::string& user_key, uint64_t seq, ValueType t) {
  std::string s;
  AppendInternalKey(&s, ParsedInternalKey(user_key, seq, t));
  return s;
}

TEST(DbIter, HidesShadowedVersionsAndTombstones) {
  InternalKeyComparator icmp(BytewiseComparator());
  // Internal entries added in internal-key order (user key asc,
  // sequence desc) by hand — std::map's bytewise order would disagree.
  BlockBuilder builder(4);
  builder.Add(IK("a", 5, kTypeValue), "a5");
  builder.Add(IK("a", 3, kTypeValue), "a3");
  builder.Add(IK("b", 6, kTypeDeletion), "");
  builder.Add(IK("b", 2, kTypeValue), "b2");
  builder.Add(IK("c", 4, kTypeValue), "c4");
  Block real_block(builder.Finish().ToString());

  auto db_iter =
      NewDBIterator(BytewiseComparator(), real_block.NewIterator(&icmp),
                    /*sequence=*/10);
  std::string out;
  for (db_iter->SeekToFirst(); db_iter->Valid(); db_iter->Next()) {
    out += db_iter->key().ToString() + "=" +
           db_iter->value().ToString() + ";";
  }
  EXPECT_EQ("a=a5;c=c4;", out);
}

TEST(DbIter, SnapshotSequenceFiltersNewWrites) {
  InternalKeyComparator icmp(BytewiseComparator());
  BlockBuilder builder(4);
  builder.Add(IK("k", 9, kTypeValue), "new");
  builder.Add(IK("k", 4, kTypeValue), "old");
  Block block(builder.Finish().ToString());

  auto at_5 = NewDBIterator(BytewiseComparator(),
                            block.NewIterator(&icmp), /*sequence=*/5);
  at_5->SeekToFirst();
  ASSERT_TRUE(at_5->Valid());
  EXPECT_EQ("old", at_5->value().ToString());

  auto at_9 = NewDBIterator(BytewiseComparator(),
                            block.NewIterator(&icmp), /*sequence=*/9);
  at_9->SeekToFirst();
  ASSERT_TRUE(at_9->Valid());
  EXPECT_EQ("new", at_9->value().ToString());
}

TEST(DbIter, ReverseSkipsTombstones) {
  InternalKeyComparator icmp(BytewiseComparator());
  BlockBuilder builder(4);
  builder.Add(IK("a", 2, kTypeValue), "1");
  builder.Add(IK("b", 5, kTypeDeletion), "");
  builder.Add(IK("b", 1, kTypeValue), "dead");
  builder.Add(IK("c", 3, kTypeValue), "3");
  Block block(builder.Finish().ToString());

  auto iter = NewDBIterator(BytewiseComparator(),
                            block.NewIterator(&icmp), 10);
  std::string out;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    out += iter->key().ToString();
  }
  EXPECT_EQ("ca", out);
}

}  // namespace
}  // namespace elmo::lsm
