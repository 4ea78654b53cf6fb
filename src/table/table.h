// Table: immutable SST reader. Data blocks go through the (optional)
// shared block cache. Index and filter blocks are pinned in memory by
// default, or charged to the block cache (and reloaded on demand) when
// cache_index_and_filter_blocks is set.
#pragma once

#include <cstdint>
#include <memory>

#include "env/env.h"
#include "table/block_cache_tracer.h"
#include "table/bloom.h"
#include "table/cache.h"
#include "table/comparator.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace elmo {

class Block;

// Block-cache lookups issued by Table readers on the calling thread,
// cumulative since the thread started. Counted at each lookup, before
// any block read, so a miss whose read fails still counts. A caller
// takes the difference of two readings to attribute lookups to an
// operation without counting other threads' traffic.
struct TableCacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
};
TableCacheCounts ThreadTableCacheCounts();

struct TableReadOptions {
  const Comparator* comparator = BytewiseComparator();
  const FilterPolicy* filter_policy = nullptr;
  std::function<Slice(const Slice&)> filter_key_transform;
  // Shared block cache; null reads every block from the file.
  std::shared_ptr<Cache> block_cache;
  bool verify_checksums = true;
  // Charge index/filter blocks to the block cache (reloading on miss)
  // instead of pinning them for the table's lifetime. Ignored (with a
  // pinned fallback) when block_cache is null.
  bool cache_index_and_filter_blocks = false;
  // Identity + tracing for block-cache observability. file_number names
  // the SST in trace records; cache_tracer (if set) records every
  // block-cache lookup this table issues.
  uint64_t file_number = 0;
  std::shared_ptr<BlockCacheTracer> cache_tracer;
};

struct TableIterOptions {
  bool fill_cache = true;
  // Compaction readahead window in bytes (0 = none); issued via
  // RandomAccessFile::Readahead as the iterator crosses block
  // boundaries.
  uint64_t readahead_bytes = 0;
  // LSM level of the file being read (-1 = unknown); only used to label
  // block-cache trace records.
  int level = -1;
};

class Table {
 public:
  // Opens a table; keeps ownership of `file`.
  static Status Open(const TableReadOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, std::unique_ptr<Table>* table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  std::unique_ptr<Iterator> NewIterator(
      const TableIterOptions& iter_options = {}) const;

  // Point lookup: calls handler(key, value) on the first entry at or
  // after `key` in this table, if any. The bloom filter is consulted
  // with the transform-applied key first. `level` only labels trace
  // records (-1 = unknown).
  Status InternalGet(const Slice& key,
                     const std::function<void(const Slice&, const Slice&)>&
                         handler,
                     int level = -1) const;

  uint64_t ApproximateOffsetOf(const Slice& key) const;

 private:
  struct Rep;
  explicit Table(std::unique_ptr<Rep> rep);

  std::unique_ptr<Iterator> BlockReader(const Slice& index_value,
                                        bool fill_cache, int level) const;
  std::shared_ptr<const Block> GetIndexBlock(Status* status) const;
  std::shared_ptr<const std::string> GetFilter(Status* status) const;

  std::unique_ptr<Rep> rep_;
};

}  // namespace elmo
