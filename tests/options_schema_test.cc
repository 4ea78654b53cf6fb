// OptionsSchema: the registry every option-text consumer depends on.
#include "lsm/options_schema.h"

#include <gtest/gtest.h>

#include <set>

namespace elmo::lsm {
namespace {

const OptionsSchema& S() { return OptionsSchema::Instance(); }

TEST(OptionsSchema, RegistryIsSubstantial) {
  EXPECT_GE(S().all().size(), 35u);
  EXPECT_GE(S().deprecated().size(), 5u);
}

TEST(OptionsSchema, EveryOptionRoundTripsThroughSetGet) {
  Options opts;
  for (const auto& info : S().all()) {
    std::string original = info.get(opts);
    Status s = info.set(&opts, original);
    EXPECT_TRUE(s.ok()) << info.name << ": " << s.ToString();
    EXPECT_EQ(original, info.get(opts)) << info.name;
  }
}

TEST(OptionsSchema, FindIsExact) {
  EXPECT_NE(nullptr, S().Find("write_buffer_size"));
  EXPECT_EQ(nullptr, S().Find("Write_Buffer_Size"));
  EXPECT_EQ(nullptr, S().Find("write_buffer_siz"));
  EXPECT_EQ(nullptr, S().Find(""));
}

TEST(OptionsSchema, ApplyUnknownRejected) {
  Options opts;
  Status s = S().Apply(&opts, "memtable_prefetch_depth", "4");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("unknown option"), std::string::npos);
}

TEST(OptionsSchema, ApplyDeprecatedExplained) {
  Options opts;
  Status s = S().Apply(&opts, "flush_job_count", "4");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("deprecated"), std::string::npos);
  EXPECT_NE(s.ToString().find("max_background_flushes"),
            std::string::npos);
}

TEST(OptionsSchema, TypeValidation) {
  Options opts;
  EXPECT_FALSE(S().Apply(&opts, "write_buffer_size", "lots").ok());
  EXPECT_FALSE(S().Apply(&opts, "enable_pipelined_write", "7ish").ok());
  EXPECT_FALSE(S().Apply(&opts, "compaction_style", "quantum").ok());
  EXPECT_TRUE(S().Apply(&opts, "compaction_style", "universal").ok());
  EXPECT_EQ(CompactionStyle::kUniversal, opts.compaction_style);
}

TEST(OptionsSchema, RangeValidation) {
  Options opts;
  EXPECT_FALSE(S().Apply(&opts, "max_write_buffer_number", "99999").ok());
  EXPECT_FALSE(S().Apply(&opts, "max_write_buffer_number", "0").ok());
  EXPECT_FALSE(S().Apply(&opts, "block_size", "1").ok());
  EXPECT_FALSE(
      S().Apply(&opts, "max_bytes_for_level_multiplier", "1000").ok());
  EXPECT_TRUE(S().Apply(&opts, "max_write_buffer_number", "8").ok());
  EXPECT_EQ(8, opts.max_write_buffer_number);
}

TEST(OptionsSchema, SizeSuffixesAccepted) {
  Options opts;
  ASSERT_TRUE(S().Apply(&opts, "write_buffer_size", "128MB").ok());
  EXPECT_EQ(128ull << 20, opts.write_buffer_size);
  ASSERT_TRUE(S().Apply(&opts, "block_cache_size", "1G").ok());
  EXPECT_EQ(1ull << 30, opts.block_cache_size);
}

TEST(OptionsSchema, BlacklistFlagOnWalDisable) {
  const OptionInfo* info = S().Find("disable_wal");
  ASSERT_NE(nullptr, info);
  EXPECT_TRUE(info->blacklisted);
  // And nothing else is blacklisted by default.
  int blacklisted = 0;
  for (const auto& o : S().all()) {
    if (o.blacklisted) blacklisted++;
  }
  EXPECT_EQ(1, blacklisted);
}

TEST(OptionsSchema, RuntimeMutablePartitionIsExplicit) {
  // The dynamic subset DB::SetOptions() accepts, spelled out in full:
  // adding an option to (or removing one from) the schema's mutable
  // list must update this test too. Everything else in the registry is
  // immutable-at-runtime.
  const std::set<std::string> kMutable = {
      "write_buffer_size",
      "max_write_buffer_number",
      "level0_slowdown_writes_trigger",
      "level0_stop_writes_trigger",
      "max_background_jobs",
      "max_background_flushes",
      "max_background_compactions",
      "max_subcompactions",
      "delayed_write_rate",
      "soft_pending_compaction_bytes_limit",
      "hard_pending_compaction_bytes_limit",
      "block_cache_size",
      "stats_sample_interval_ms",
  };
  for (const auto& info : S().all()) {
    const bool expected = kMutable.count(info.name) > 0;
    EXPECT_EQ(expected, info.runtime_mutable)
        << info.name << ": expected "
        << (expected ? "runtime-mutable" : "immutable-at-runtime");
    EXPECT_EQ(expected, S().IsMutable(info.name)) << info.name;
  }
  // MutableNames() is exactly the partition, in registration order.
  const std::vector<std::string> names = S().MutableNames();
  EXPECT_EQ(kMutable.size(), names.size());
  for (const std::string& n : names) {
    EXPECT_EQ(1u, kMutable.count(n)) << n;
  }
  // Unknown names are never mutable; the WAL kill-switch stays locked.
  EXPECT_FALSE(S().IsMutable("no_such_option"));
  EXPECT_FALSE(S().IsMutable("disable_wal"));
}

TEST(OptionsSchema, DescribeMutableCoversExactlyTheDynamicSubset) {
  Options defaults;
  const std::string desc = S().DescribeMutable(defaults);
  for (const auto& info : S().all()) {
    // Each listed option renders one "name = value" line; matching on
    // "name = " keeps prose mentions in descriptions from counting.
    const bool listed =
        desc.find(info.name + " = ") != std::string::npos;
    EXPECT_EQ(info.runtime_mutable, listed) << info.name;
  }
}

TEST(OptionsSchema, IniRoundTripPreservesEveryOption) {
  Options tuned;
  tuned.write_buffer_size = 32ull << 20;
  tuned.max_background_jobs = 6;
  tuned.bloom_filter_bits_per_key = 10;
  tuned.compaction_style = CompactionStyle::kUniversal;
  tuned.enable_pipelined_write = false;
  tuned.max_bytes_for_level_multiplier = 8;

  std::string text = S().ToIniText(tuned);
  IniDoc doc;
  ASSERT_TRUE(IniDoc::Parse(text, &doc).ok());

  Options parsed;
  std::vector<std::string> unknown, invalid;
  ASSERT_TRUE(S().FromIni(doc, &parsed, &unknown, &invalid).ok());
  EXPECT_TRUE(unknown.empty());
  EXPECT_TRUE(invalid.empty());
  for (const auto& info : S().all()) {
    EXPECT_EQ(info.get(tuned), info.get(parsed)) << info.name;
  }
}

TEST(OptionsSchema, IniUsesRocksDbStyleSections) {
  Options defaults;
  IniDoc doc = S().ToIni(defaults);
  EXPECT_TRUE(doc.HasSection("DBOptions"));
  EXPECT_TRUE(doc.HasSection("CFOptions"));
  EXPECT_TRUE(doc.HasSection("TableOptions"));
  EXPECT_TRUE(
      doc.Get("CFOptions", "write_buffer_size").has_value());
  EXPECT_TRUE(
      doc.Get("TableOptions", "block_cache_size").has_value());
}

TEST(OptionsSchema, FromIniCollectsUnknownAndInvalid) {
  IniDoc doc;
  doc.Set("DBOptions", "max_background_jobs", "4");
  doc.Set("DBOptions", "made_up_option", "1");
  doc.Set("CFOptions", "write_buffer_size", "banana");
  Options opts;
  std::vector<std::string> unknown, invalid;
  ASSERT_TRUE(S().FromIni(doc, &opts, &unknown, &invalid).ok());
  EXPECT_EQ(4, opts.max_background_jobs);
  ASSERT_EQ(1u, unknown.size());
  EXPECT_EQ("made_up_option", unknown[0]);
  ASSERT_EQ(1u, invalid.size());
  EXPECT_NE(invalid[0].find("write_buffer_size"), std::string::npos);
}

TEST(OptionsSchema, DescribeAllMentionsEveryOption) {
  Options defaults;
  std::string desc = S().DescribeAll(defaults);
  for (const auto& info : S().all()) {
    EXPECT_NE(desc.find(info.name), std::string::npos) << info.name;
  }
  EXPECT_NE(desc.find("[LOCKED]"), std::string::npos);
}

TEST(OptionsSchema, ResolvedBackgroundSlots) {
  Options o;
  o.max_background_jobs = 8;
  o.max_background_flushes = -1;
  o.max_background_compactions = -1;
  EXPECT_EQ(2, o.ResolvedFlushSlots());
  EXPECT_EQ(6, o.ResolvedCompactionSlots());
  o.max_background_flushes = 3;
  EXPECT_EQ(3, o.ResolvedFlushSlots());
  o.max_background_jobs = 1;
  o.max_background_flushes = -1;
  EXPECT_EQ(1, o.ResolvedFlushSlots());
  EXPECT_GE(o.ResolvedCompactionSlots(), 1);
}

TEST(OptionsSchema, ConfiguredMemoryFootprint) {
  Options o;
  o.write_buffer_size = 64ull << 20;
  o.max_write_buffer_number = 4;
  o.block_cache_size = 1ull << 30;
  EXPECT_EQ((1ull << 30) + 4 * (64ull << 20),
            o.ConfiguredMemoryFootprint());
}

TEST(OptionsSchema, EnumHelpers) {
  EXPECT_EQ(CompactionStyle::kLevel,
            CompactionStyleFromString("LEVEL").value());
  EXPECT_EQ(CompactionStyle::kUniversal,
            CompactionStyleFromString("kCompactionStyleUniversal").value());
  EXPECT_FALSE(CompactionStyleFromString("tiered?").has_value());
  EXPECT_EQ("level", CompactionStyleToString(CompactionStyle::kLevel));
  EXPECT_EQ(CompressionType::kNoCompression,
            CompressionFromString("none").value());
  EXPECT_EQ(CompressionType::kRleCompression,
            CompressionFromString("RLE").value());
  EXPECT_FALSE(CompressionFromString("snappy").has_value());
}

}  // namespace
}  // namespace elmo::lsm
