#include "lsm/options_schema.h"

#include <cinttypes>

#include "util/string_util.h"

namespace elmo::lsm {

std::string CompactionStyleToString(CompactionStyle style) {
  switch (style) {
    case CompactionStyle::kLevel: return "level";
    case CompactionStyle::kUniversal: return "universal";
  }
  return "level";
}

std::optional<CompactionStyle> CompactionStyleFromString(
    const std::string& s) {
  std::string t = ToLower(TrimWhitespace(s));
  if (t == "level" || t == "kcompactionstylelevel") {
    return CompactionStyle::kLevel;
  }
  if (t == "universal" || t == "kcompactionstyleuniversal") {
    return CompactionStyle::kUniversal;
  }
  return std::nullopt;
}

std::string CompressionToString(CompressionType type) {
  switch (type) {
    case CompressionType::kNoCompression: return "none";
    case CompressionType::kRleCompression: return "rle";
  }
  return "none";
}

std::optional<CompressionType> CompressionFromString(const std::string& s) {
  std::string t = ToLower(TrimWhitespace(s));
  if (t == "none" || t == "no" || t == "knocompression") {
    return CompressionType::kNoCompression;
  }
  if (t == "rle" || t == "krlecompression") {
    return CompressionType::kRleCompression;
  }
  return std::nullopt;
}

namespace {

std::string BoolToString(bool b) { return b ? "true" : "false"; }

std::string I64ToString(int64_t v) { return std::to_string(v); }
std::string U64ToString(uint64_t v) { return std::to_string(v); }
std::string DoubleToString(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

// Builders keeping each registration to a few lines.
namespace {

OptionInfo BoolOpt(const char* name, const char* section, bool Options::*field,
                   const char* desc, bool blacklisted = false) {
  OptionInfo o;
  o.name = name;
  o.section = section;
  o.type = OptionType::kBool;
  o.blacklisted = blacklisted;
  o.description = desc;
  o.set = [field, name = o.name](Options* opts, const std::string& v) {
    auto b = ParseBool(v);
    if (!b.has_value()) {
      return Status::InvalidArgument(name, "expected a boolean, got '" + v + "'");
    }
    opts->*field = *b;
    return Status::OK();
  };
  o.get = [field](const Options& opts) { return BoolToString(opts.*field); };
  return o;
}

OptionInfo IntOpt(const char* name, const char* section, int Options::*field,
                  int64_t min_v, int64_t max_v, const char* desc) {
  OptionInfo o;
  o.name = name;
  o.section = section;
  o.type = OptionType::kInt;
  o.min_value = min_v;
  o.max_value = max_v;
  o.description = desc;
  o.set = [field, min_v, max_v, name = o.name](Options* opts,
                                               const std::string& v) {
    auto n = ParseInt64(v);
    if (!n.has_value()) {
      return Status::InvalidArgument(name, "expected an integer, got '" + v + "'");
    }
    if (*n < min_v || *n > max_v) {
      return Status::InvalidArgument(
          name, "value " + v + " out of range [" + I64ToString(min_v) + ", " +
                    I64ToString(max_v) + "]");
    }
    opts->*field = static_cast<int>(*n);
    return Status::OK();
  };
  o.get = [field](const Options& opts) { return I64ToString(opts.*field); };
  return o;
}

OptionInfo UintOpt(const char* name, const char* section,
                   uint64_t Options::*field, int64_t min_v, int64_t max_v,
                   const char* desc) {
  OptionInfo o;
  o.name = name;
  o.section = section;
  o.type = OptionType::kUint;
  o.min_value = min_v;
  o.max_value = max_v;
  o.description = desc;
  o.set = [field, min_v, max_v, name = o.name](Options* opts,
                                               const std::string& v) {
    auto n = ParseInt64(v);
    if (!n.has_value()) {
      return Status::InvalidArgument(name, "expected an integer, got '" + v + "'");
    }
    if (*n < min_v || *n > max_v) {
      return Status::InvalidArgument(
          name, "value " + v + " out of range [" + I64ToString(min_v) + ", " +
                    I64ToString(max_v) + "]");
    }
    opts->*field = static_cast<uint64_t>(*n);
    return Status::OK();
  };
  o.get = [field](const Options& opts) { return U64ToString(opts.*field); };
  return o;
}

OptionInfo DoubleOpt(const char* name, const char* section,
                     double Options::*field, int64_t min_v, int64_t max_v,
                     const char* desc) {
  OptionInfo o;
  o.name = name;
  o.section = section;
  o.type = OptionType::kDouble;
  o.min_value = min_v;
  o.max_value = max_v;
  o.description = desc;
  o.set = [field, min_v, max_v, name = o.name](Options* opts,
                                               const std::string& v) {
    auto d = ParseDouble(v);
    if (!d.has_value()) {
      return Status::InvalidArgument(name, "expected a number, got '" + v + "'");
    }
    if (*d < min_v || *d > max_v) {
      return Status::InvalidArgument(
          name, "value " + v + " out of range [" + I64ToString(min_v) + ", " +
                    I64ToString(max_v) + "]");
    }
    opts->*field = *d;
    return Status::OK();
  };
  o.get = [field](const Options& opts) {
    return DoubleToString(opts.*field);
  };
  return o;
}

}  // namespace

OptionsSchema::OptionsSchema() {
  const int64_t kMaxI = INT32_MAX;
  const int64_t kMaxBytes = 1ll << 42;  // 4 TiB ceiling on byte options

  // ----- DBOptions -----
  options_.push_back(IntOpt(
      "max_background_jobs", "DBOptions", &Options::max_background_jobs, 1,
      512, "Total background flush+compaction parallelism budget."));
  options_.push_back(IntOpt(
      "max_background_flushes", "DBOptions", &Options::max_background_flushes,
      -1, 64,
      "Concurrent flush jobs; -1 derives roughly jobs/4 (min 1)."));
  options_.push_back(IntOpt(
      "max_background_compactions", "DBOptions",
      &Options::max_background_compactions, -1, 64,
      "Concurrent compaction jobs; -1 derives from max_background_jobs."));
  options_.push_back(IntOpt(
      "max_subcompactions", "DBOptions", &Options::max_subcompactions, 1,
      64, "Split one large compaction across this many workers."));
  options_.push_back(UintOpt(
      "bytes_per_sync", "DBOptions", &Options::bytes_per_sync, 0, kMaxBytes,
      "Incrementally sync SST writes every N bytes; 0 lets dirty pages "
      "accumulate until the OS forces a bursty writeback."));
  options_.push_back(UintOpt(
      "wal_bytes_per_sync", "DBOptions", &Options::wal_bytes_per_sync, 0,
      kMaxBytes, "Like bytes_per_sync but for the write-ahead log."));
  options_.push_back(BoolOpt(
      "strict_bytes_per_sync", "DBOptions", &Options::strict_bytes_per_sync,
      "Enforce the sync cadence exactly (sync boundary even mid-burst)."));
  options_.push_back(UintOpt(
      "delayed_write_rate", "DBOptions", &Options::delayed_write_rate,
      1 << 10, kMaxBytes,
      "Write throughput ceiling applied during the slowdown regime."));
  options_.push_back(UintOpt(
      "compaction_readahead_size", "DBOptions",
      &Options::compaction_readahead_size, 0, 1ull << 30,
      "Sequential readahead window for compaction inputs; large values "
      "hide seek latency on spinning disks."));
  options_.push_back(IntOpt(
      "max_open_files", "DBOptions", &Options::max_open_files, -1,
      kMaxI, "Table-reader handles kept open; -1 = unlimited."));
  options_.push_back(UintOpt(
      "max_total_wal_size", "DBOptions", &Options::max_total_wal_size, 0,
      kMaxBytes, "Force a memtable flush once live WAL data exceeds this."));
  options_.push_back(BoolOpt(
      "enable_pipelined_write", "DBOptions", &Options::enable_pipelined_write,
      "Overlap WAL append and memtable insert stages."));
  options_.push_back(BoolOpt(
      "dump_malloc_stats", "DBOptions", &Options::dump_malloc_stats,
      "Include allocator statistics in stat dumps (small CPU cost)."));
  options_.push_back(BoolOpt(
      "paranoid_checks", "DBOptions", &Options::paranoid_checks,
      "Aggressive corruption checking on every read."));
  options_.push_back(UintOpt(
      "stats_dump_period_sec", "DBOptions", &Options::stats_dump_period_sec,
      0, 86400, "Dump engine stats to the info log every N seconds."));
  options_.push_back(UintOpt(
      "stats_sample_interval_ms", "DBOptions",
      &Options::stats_sample_interval_ms, 0, 3600000,
      "Record a telemetry time-series sample every N ms (0 = off); "
      "read back via GetProperty(\"elmo.timeseries\")."));
  options_.push_back(UintOpt(
      "stats_history_size", "DBOptions", &Options::stats_history_size,
      16, 1 << 20, "Max time-series samples retained (drop-oldest ring)."));
  options_.push_back(IntOpt(
      "max_bgerror_resume_count", "DBOptions",
      &Options::max_bgerror_resume_count, 0, 1024,
      "Auto-resume attempts per background-error episode before the DB "
      "degrades to read-only and waits for a manual Resume() (0 = "
      "auto-resume off)."));
  options_.push_back(UintOpt(
      "bgerror_resume_retry_interval_ms", "DBOptions",
      &Options::bgerror_resume_retry_interval_ms, 1, 3600000,
      "Backoff before the first auto-resume attempt; doubles per failed "
      "attempt up to bgerror_resume_max_backoff_ms."));
  options_.push_back(UintOpt(
      "bgerror_resume_max_backoff_ms", "DBOptions",
      &Options::bgerror_resume_max_backoff_ms, 1, 3600000,
      "Cap on the exponential auto-resume backoff."));
  options_.push_back(UintOpt(
      "free_space_reserved_bytes", "DBOptions",
      &Options::free_space_reserved_bytes, 0, kMaxBytes,
      "Free-space headroom: pause flushes/compactions while device free "
      "space is at or below this, resume when space frees (0 = off)."));
  options_.push_back(UintOpt(
      "free_space_poll_interval_ms", "DBOptions",
      &Options::free_space_poll_interval_ms, 1, 3600000,
      "Re-poll cadence of the free-space monitor."));
  options_.push_back(BoolOpt(
      "use_direct_reads", "DBOptions", &Options::use_direct_reads,
      "Bypass the OS page cache for user reads."));
  options_.push_back(BoolOpt(
      "use_direct_io_for_flush_and_compaction", "DBOptions",
      &Options::use_direct_io_for_flush_and_compaction,
      "Bypass the OS page cache for background writes."));
  options_.push_back(BoolOpt(
      "disable_wal", "DBOptions", &Options::disable_wal,
      "Disable the write-ahead log entirely. Blacklisted: trades "
      "durability for benchmark speed.",
      /*blacklisted=*/true));

  // ----- CFOptions -----
  options_.push_back(UintOpt(
      "write_buffer_size", "CFOptions", &Options::write_buffer_size,
      1 << 16, kMaxBytes,
      "Memtable size before it becomes immutable and is queued to flush."));
  options_.push_back(IntOpt(
      "max_write_buffer_number", "CFOptions",
      &Options::max_write_buffer_number, 2, 64,
      "Total memtables (active+immutable) before writes stop."));
  options_.push_back(IntOpt(
      "min_write_buffer_number_to_merge", "CFOptions",
      &Options::min_write_buffer_number_to_merge, 1, 16,
      "Immutable memtables merged together by one flush."));
  options_.push_back(IntOpt(
      "num_levels", "CFOptions", &Options::num_levels, 2, 12,
      "Depth of the LSM tree."));
  options_.push_back(IntOpt(
      "level0_file_num_compaction_trigger", "CFOptions",
      &Options::level0_file_num_compaction_trigger, 1, 256,
      "L0 file count that triggers an L0->L1 compaction."));
  options_.push_back(IntOpt(
      "level0_slowdown_writes_trigger", "CFOptions",
      &Options::level0_slowdown_writes_trigger, 1, 1024,
      "L0 file count at which writes are rate-limited."));
  options_.push_back(IntOpt(
      "level0_stop_writes_trigger", "CFOptions",
      &Options::level0_stop_writes_trigger, 1, 4096,
      "L0 file count at which writes stop entirely."));
  options_.push_back(UintOpt(
      "max_bytes_for_level_base", "CFOptions",
      &Options::max_bytes_for_level_base, 1 << 20, kMaxBytes,
      "Target size of L1."));
  options_.push_back(DoubleOpt(
      "max_bytes_for_level_multiplier", "CFOptions",
      &Options::max_bytes_for_level_multiplier, 2, 100,
      "Growth factor between adjacent levels."));
  options_.push_back(UintOpt(
      "target_file_size_base", "CFOptions", &Options::target_file_size_base,
      1 << 16, kMaxBytes, "SST file size target at L1."));
  options_.push_back(IntOpt(
      "target_file_size_multiplier", "CFOptions",
      &Options::target_file_size_multiplier, 1, 100,
      "File size growth factor per level."));
  options_.push_back(BoolOpt(
      "level_compaction_dynamic_level_bytes", "CFOptions",
      &Options::level_compaction_dynamic_level_bytes,
      "Size levels downward from the last level instead of up from L1 "
      "(modern RocksDB recommendation)."));
  options_.push_back(BoolOpt(
      "disable_auto_compactions", "CFOptions",
      &Options::disable_auto_compactions,
      "Stop all automatic compaction (reads degrade as L0 grows)."));
  options_.push_back(UintOpt(
      "soft_pending_compaction_bytes_limit", "CFOptions",
      &Options::soft_pending_compaction_bytes_limit, 0,
      1ll << 50, "Compaction debt that triggers the write slowdown."));
  options_.push_back(UintOpt(
      "hard_pending_compaction_bytes_limit", "CFOptions",
      &Options::hard_pending_compaction_bytes_limit, 0,
      1ll << 50, "Compaction debt that stops writes."));

  // compaction_style (enum)
  {
    OptionInfo o;
    o.name = "compaction_style";
    o.section = "CFOptions";
    o.type = OptionType::kEnum;
    o.enum_values = {"level", "universal"};
    o.description =
        "Leveled compaction (read-optimized) or universal/size-tiered "
        "(write-optimized).";
    o.set = [](Options* opts, const std::string& v) {
      auto style = CompactionStyleFromString(v);
      if (!style.has_value()) {
        return Status::InvalidArgument("compaction_style",
                                       "expected level|universal, got '" + v + "'");
      }
      opts->compaction_style = *style;
      return Status::OK();
    };
    o.get = [](const Options& opts) {
      return CompactionStyleToString(opts.compaction_style);
    };
    options_.push_back(std::move(o));
  }

  // compression (enum)
  {
    OptionInfo o;
    o.name = "compression";
    o.section = "CFOptions";
    o.type = OptionType::kEnum;
    o.enum_values = {"none", "rle"};
    o.description = "Block compression codec.";
    o.set = [](Options* opts, const std::string& v) {
      auto c = CompressionFromString(v);
      if (!c.has_value()) {
        return Status::InvalidArgument("compression",
                                       "expected none|rle, got '" + v + "'");
      }
      opts->compression = *c;
      return Status::OK();
    };
    o.get = [](const Options& opts) {
      return CompressionToString(opts.compression);
    };
    options_.push_back(std::move(o));
  }

  // ----- TableOptions -----
  options_.push_back(UintOpt(
      "block_cache_size", "TableOptions", &Options::block_cache_size,
      0, kMaxBytes,
      "Shared uncompressed block cache capacity."));
  options_.push_back(UintOpt(
      "block_size", "TableOptions", &Options::block_size, 256,
      16ull << 20, "Uncompressed data block target size."));
  options_.push_back(IntOpt(
      "block_restart_interval", "TableOptions",
      &Options::block_restart_interval, 1, 256,
      "Keys between prefix-compression restart points."));
  options_.push_back(IntOpt(
      "bloom_filter_bits_per_key", "TableOptions",
      &Options::bloom_filter_bits_per_key, 0, 64,
      "Bloom filter density; 0 disables filters (default here, as in "
      "db_bench), ~10 gives a <1% false-positive rate."));
  options_.push_back(BoolOpt(
      "cache_index_and_filter_blocks", "TableOptions",
      &Options::cache_index_and_filter_blocks,
      "Charge index/filter blocks to the block cache instead of pinning "
      "them outside it."));

  // ----- runtime-mutable subset -----
  // Options DB::SetOptions() may change on a live DB. Everything not
  // listed here stays immutable-at-runtime (the OptionInfo default):
  // values baked into on-disk formats or open-time wiring (num_levels,
  // block_size, compaction_style, WAL switches, ...) cannot be
  // re-plumbed without a reopen. The listed subset is exactly what
  // db_impl.cc knows how to re-apply: memtable sizing, stall triggers
  // and thresholds, background parallelism, rate limits, block-cache
  // capacity, and sampler cadence.
  {
    const char* kMutable[] = {
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
    for (const char* name : kMutable) {
      for (auto& o : options_) {
        if (o.name == name) o.runtime_mutable = true;
      }
    }
  }

  // ----- deprecated names the engine refuses (LLMs love these) -----
  deprecated_ = {
      {"flush_job_count", "removed; use max_background_flushes"},
      {"max_mem_compaction_level", "removed in modern engines"},
      {"soft_rate_limit", "replaced by delayed_write_rate"},
      {"hard_rate_limit", "replaced by the stop triggers"},
      {"skip_log_error_on_recovery", "removed"},
      {"base_background_compactions", "replaced by max_background_jobs"},
      {"db_write_buffer_size_per_table", "never existed in this engine"},
  };
}

const OptionsSchema& OptionsSchema::Instance() {
  static OptionsSchema schema;
  return schema;
}

const OptionInfo* OptionsSchema::Find(const std::string& name) const {
  for (const auto& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

bool OptionsSchema::IsMutable(const std::string& name) const {
  const OptionInfo* info = Find(name);
  return info != nullptr && info->runtime_mutable;
}

std::vector<std::string> OptionsSchema::MutableNames() const {
  std::vector<std::string> names;
  for (const auto& o : options_) {
    if (o.runtime_mutable) names.push_back(o.name);
  }
  return names;
}

const DeprecatedOption* OptionsSchema::FindDeprecated(
    const std::string& name) const {
  for (const auto& d : deprecated_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

Status OptionsSchema::Apply(Options* opts, const std::string& name,
                            const std::string& value) const {
  const OptionInfo* info = Find(name);
  if (info == nullptr) {
    const DeprecatedOption* dep = FindDeprecated(name);
    if (dep != nullptr) {
      return Status::InvalidArgument(
          name, "deprecated option (" + dep->note + ")");
    }
    return Status::InvalidArgument(name, "unknown option");
  }
  return info->set(opts, value);
}

IniDoc OptionsSchema::ToIni(const Options& opts) const {
  IniDoc doc;
  // Emit sections in a fixed order.
  for (const char* section : {"DBOptions", "CFOptions", "TableOptions"}) {
    for (const auto& o : options_) {
      if (o.section == section) {
        doc.Set(section, o.name, o.get(opts));
      }
    }
  }
  return doc;
}

std::string OptionsSchema::ToIniText(const Options& opts) const {
  return ToIni(opts).Serialize();
}

Status OptionsSchema::FromIni(const IniDoc& doc, Options* opts,
                              std::vector<std::string>* unknown,
                              std::vector<std::string>* invalid) const {
  for (const auto& section : doc.sections()) {
    for (const auto& entry : section.entries) {
      const OptionInfo* info = Find(entry.key);
      if (info == nullptr) {
        if (unknown != nullptr) unknown->push_back(entry.key);
        continue;
      }
      Status s = info->set(opts, entry.value);
      if (!s.ok() && invalid != nullptr) {
        invalid->push_back(entry.key + "=" + entry.value + ": " +
                           s.ToString());
      }
    }
  }
  return Status::OK();
}

std::string OptionsSchema::DescribeAll(const Options& current) const {
  std::string out;
  for (const auto& o : options_) {
    out += o.name + " = " + o.get(current);
    out += "   # " + o.description;
    if (o.blacklisted) out += " [LOCKED]";
    if (o.runtime_mutable) out += " [DYNAMIC]";
    out += "\n";
  }
  return out;
}

std::string OptionsSchema::DescribeMutable(const Options& current) const {
  std::string out;
  for (const auto& o : options_) {
    if (!o.runtime_mutable) continue;
    out += o.name + " = " + o.get(current);
    out += "   # " + o.description;
    if (o.type == OptionType::kInt || o.type == OptionType::kUint ||
        o.type == OptionType::kDouble) {
      out += " [" + I64ToString(o.min_value) + ", " +
             I64ToString(o.max_value) + "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace elmo::lsm
