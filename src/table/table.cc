#include "table/table.h"


#include "env/io_trace.h"
#include "table/block.h"
#include "table/format.h"
#include "util/coding.h"

namespace elmo {

namespace {

thread_local TableCacheCounts tls_cache_counts;

// Every block-cache lookup a Table issues goes through here.
template <typename T>
std::shared_ptr<T> CountedLookup(Cache* cache, const Slice& key) {
  std::shared_ptr<T> found = cache->LookupAs<T>(key);
  if (found != nullptr) {
    tls_cache_counts.hits++;
  } else {
    tls_cache_counts.misses++;
  }
  return found;
}

// The returned iterator keeps the block alive via the shared_ptr.
class OwningIter : public Iterator {
 public:
  OwningIter(std::shared_ptr<const Block> block, const Comparator* cmp)
      : block_(std::move(block)), iter_(block_->NewIterator(cmp)) {}
  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void SeekToLast() override { iter_->SeekToLast(); }
  void Seek(const Slice& t) override { iter_->Seek(t); }
  void Next() override { iter_->Next(); }
  void Prev() override { iter_->Prev(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::shared_ptr<const Block> block_;
  std::unique_ptr<Iterator> iter_;
};

}  // namespace

TableCacheCounts ThreadTableCacheCounts() { return tls_cache_counts; }

struct Table::Rep {
  TableReadOptions options;
  std::unique_ptr<RandomAccessFile> file;
  uint64_t cache_id = 0;
  // Pinned copies, used unless cache_metadata is set.
  std::shared_ptr<const Block> index_block;
  std::shared_ptr<const std::string> filter_data;
  // Handles for reload-on-miss when index/filter live in the block cache.
  BlockHandle index_handle;
  BlockHandle filter_handle;  // size()==0 when the table has no filter
  bool cache_metadata = false;

  Slice CacheKey(char* buf, uint64_t offset) const {
    EncodeFixed64(buf, cache_id);
    EncodeFixed64(buf + 8, offset);
    return Slice(buf, 16);
  }

  void Trace(TraceBlockType type, bool hit, bool fill, int level,
             uint64_t offset, uint64_t charge) const {
    if (options.cache_tracer != nullptr) {
      options.cache_tracer->Record(type, hit, fill, level,
                                   options.file_number, offset, charge);
    }
  }
};

Table::Table(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
Table::~Table() = default;

Status Table::Open(const TableReadOptions& options,
                   std::unique_ptr<RandomAccessFile> file, uint64_t file_size,
                   std::unique_ptr<Table>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  // Footer/index/filter reads are SST metadata in the IO trace.
  IOMetadataHintScope metadata_scope;

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(file_size - Footer::kEncodedLength,
                        Footer::kEncodedLength, &footer_input, footer_space);
  if (!s.ok()) return s;

  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  BlockContents index_contents;
  s = ReadBlock(file.get(), footer.index_handle(), &index_contents,
                options.verify_checksums);
  if (!s.ok()) return s;

  auto rep = std::make_unique<Rep>();
  rep->options = options;
  rep->file = std::move(file);
  rep->cache_id = options.block_cache ? options.block_cache->NewId() : 0;
  rep->index_handle = footer.index_handle();
  // A default BlockHandle has size ~0; size 0 is what GetFilter reads as
  // "no filter" until one is loaded below.
  rep->filter_handle.set_size(0);
  rep->cache_metadata =
      options.cache_index_and_filter_blocks && options.block_cache != nullptr;

  auto index = std::make_shared<Block>(std::move(index_contents.data));
  std::shared_ptr<std::string> filter;
  if (options.filter_policy != nullptr && footer.filter_handle().size() > 0) {
    rep->filter_handle = footer.filter_handle();
    BlockContents filter_contents;
    s = ReadBlock(rep->file.get(), footer.filter_handle(), &filter_contents,
                  options.verify_checksums);
    if (!s.ok()) return s;
    filter = std::make_shared<std::string>(std::move(filter_contents.data));
  }

  if (rep->cache_metadata) {
    // Charge the metadata to the block cache instead of pinning; the
    // initial loads count as (filling) misses in the access trace.
    char key_buf[16];
    rep->options.block_cache->Insert(
        rep->CacheKey(key_buf, rep->index_handle.offset()), index,
        index->size());
    rep->Trace(TraceBlockType::kIndex, /*hit=*/false, /*fill=*/true,
               /*level=*/-1, rep->index_handle.offset(), index->size());
    if (filter != nullptr) {
      rep->options.block_cache->Insert(
          rep->CacheKey(key_buf, rep->filter_handle.offset()), filter,
          filter->size());
      rep->Trace(TraceBlockType::kFilter, false, true, -1,
                 rep->filter_handle.offset(), filter->size());
    }
  } else {
    rep->index_block = std::move(index);
    rep->filter_data = std::move(filter);
  }

  *table = std::unique_ptr<Table>(new Table(std::move(rep)));
  return Status::OK();
}

std::shared_ptr<const Block> Table::GetIndexBlock(Status* status) const {
  const Rep* r = rep_.get();
  *status = Status::OK();
  if (!r->cache_metadata) return r->index_block;

  char key_buf[16];
  Slice key = r->CacheKey(key_buf, r->index_handle.offset());
  auto cached = CountedLookup<const Block>(r->options.block_cache.get(), key);
  if (cached != nullptr) {
    r->Trace(TraceBlockType::kIndex, true, true, -1, r->index_handle.offset(),
             cached->size());
    return cached;
  }
  IOMetadataHintScope metadata_scope;
  BlockContents contents;
  *status = ReadBlock(r->file.get(), r->index_handle, &contents,
                      r->options.verify_checksums);
  if (!status->ok()) return nullptr;
  auto fresh = std::make_shared<Block>(std::move(contents.data));
  r->options.block_cache->Insert(key, fresh, fresh->size());
  r->Trace(TraceBlockType::kIndex, false, true, -1, r->index_handle.offset(),
           fresh->size());
  return fresh;
}

std::shared_ptr<const std::string> Table::GetFilter(Status* status) const {
  const Rep* r = rep_.get();
  *status = Status::OK();
  if (!r->cache_metadata) return r->filter_data;
  if (r->filter_handle.size() == 0) return nullptr;  // table has no filter

  char key_buf[16];
  Slice key = r->CacheKey(key_buf, r->filter_handle.offset());
  auto cached =
      CountedLookup<const std::string>(r->options.block_cache.get(), key);
  if (cached != nullptr) {
    r->Trace(TraceBlockType::kFilter, true, true, -1,
             r->filter_handle.offset(), cached->size());
    return cached;
  }
  IOMetadataHintScope metadata_scope;
  BlockContents contents;
  *status = ReadBlock(r->file.get(), r->filter_handle, &contents,
                      r->options.verify_checksums);
  if (!status->ok()) return nullptr;
  auto fresh = std::make_shared<std::string>(std::move(contents.data));
  r->options.block_cache->Insert(key, fresh, fresh->size());
  r->Trace(TraceBlockType::kFilter, false, true, -1,
           r->filter_handle.offset(), fresh->size());
  return fresh;
}

std::unique_ptr<Iterator> Table::BlockReader(const Slice& index_value,
                                             bool fill_cache,
                                             int level) const {
  const Rep* r = rep_.get();
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewEmptyIterator(s);

  std::shared_ptr<const Block> block;
  if (r->options.block_cache != nullptr) {
    char cache_key_buf[16];
    Slice cache_key = r->CacheKey(cache_key_buf, handle.offset());
    auto cached =
        CountedLookup<const Block>(r->options.block_cache.get(), cache_key);
    if (cached != nullptr) {
      r->Trace(TraceBlockType::kData, true, fill_cache, level,
               handle.offset(), cached->size());
      block = cached;
    } else {
      BlockContents contents;
      s = ReadBlock(r->file.get(), handle, &contents,
                    r->options.verify_checksums);
      if (!s.ok()) return NewEmptyIterator(s);
      auto fresh = std::make_shared<Block>(std::move(contents.data));
      if (fill_cache) {
        r->options.block_cache->Insert(cache_key, fresh, fresh->size());
      }
      r->Trace(TraceBlockType::kData, false, fill_cache, level,
               handle.offset(), fresh->size());
      block = fresh;
    }
  } else {
    BlockContents contents;
    s = ReadBlock(r->file.get(), handle, &contents,
                  r->options.verify_checksums);
    if (!s.ok()) return NewEmptyIterator(s);
    block = std::make_shared<Block>(std::move(contents.data));
  }

  return std::make_unique<OwningIter>(std::move(block),
                                      r->options.comparator);
}

namespace {

// Iterates over the data blocks named by an index iterator.
class TwoLevelIterator : public Iterator {
 public:
  TwoLevelIterator(
      std::unique_ptr<Iterator> index_iter,
      std::function<std::unique_ptr<Iterator>(const Slice&)> block_function)
      : index_iter_(std::move(index_iter)),
        block_function_(std::move(block_function)) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  void Prev() override {
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  // A data-block error must survive even though the erroring iterator
  // is replaced while skipping.
  void SaveChildError() {
    if (data_iter_ != nullptr && status_.ok() &&
        !data_iter_->status().ok()) {
      status_ = data_iter_->status();
    }
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      SaveChildError();
      if (!index_iter_->Valid()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      SaveChildError();
      if (!index_iter_->Valid()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SaveChildError();
      data_iter_.reset();
      return;
    }
    Slice handle = index_iter_->value();
    if (data_iter_ != nullptr && handle == current_handle_) return;
    SaveChildError();
    current_handle_.assign(handle.data(), handle.size());
    data_iter_ = block_function_(handle);
  }

  std::unique_ptr<Iterator> index_iter_;
  std::function<std::unique_ptr<Iterator>(const Slice&)> block_function_;
  std::unique_ptr<Iterator> data_iter_;
  std::string current_handle_;
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> Table::NewIterator(
    const TableIterOptions& iter_options) const {
  Status s;
  std::shared_ptr<const Block> index = GetIndexBlock(&s);
  if (index == nullptr) return NewEmptyIterator(s);
  // Cursor tracking how far readahead has been issued.
  auto readahead_pos = std::make_shared<uint64_t>(0);
  auto block_fn = [this, iter_options,
                   readahead_pos](const Slice& handle) {
    if (iter_options.readahead_bytes > 0) {
      Slice input = handle;
      BlockHandle bh;
      if (bh.DecodeFrom(&input).ok() && bh.offset() >= *readahead_pos) {
        rep_->file->Readahead(bh.offset(), iter_options.readahead_bytes);
        *readahead_pos = bh.offset() + iter_options.readahead_bytes;
      }
    }
    return BlockReader(handle, iter_options.fill_cache, iter_options.level);
  };
  // The index iterator keeps the (possibly cache-resident) block alive.
  return std::make_unique<TwoLevelIterator>(
      std::make_unique<OwningIter>(std::move(index), rep_->options.comparator),
      block_fn);
}

Status Table::InternalGet(
    const Slice& key,
    const std::function<void(const Slice&, const Slice&)>& handler,
    int level) const {
  const Rep* r = rep_.get();

  // Filter check first: a negative verdict saves the block read.
  Status s;
  std::shared_ptr<const std::string> filter = GetFilter(&s);
  if (!s.ok()) return s;
  if (r->options.filter_policy != nullptr && filter != nullptr &&
      !filter->empty()) {
    Slice filter_key = r->options.filter_key_transform
                           ? r->options.filter_key_transform(key)
                           : key;
    if (!r->options.filter_policy->KeyMayMatch(filter_key, Slice(*filter))) {
      return Status::OK();  // definitely absent from this table
    }
  }

  std::shared_ptr<const Block> index = GetIndexBlock(&s);
  if (index == nullptr) return s;
  auto index_iter = index->NewIterator(r->options.comparator);
  index_iter->Seek(key);
  if (index_iter->Valid()) {
    auto block_iter =
        BlockReader(index_iter->value(), /*fill_cache=*/true, level);
    block_iter->Seek(key);
    if (block_iter->Valid()) {
      handler(block_iter->key(), block_iter->value());
    }
    if (!block_iter->status().ok()) return block_iter->status();
  }
  return index_iter->status();
}

}  // namespace elmo
