#include "layer_probe.h"

#include <algorithm>
#include <memory>

#include "lsm/dbformat.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/write_batch.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/bloom.h"
#include "table/cache.h"
#include "table/comparator.h"
#include "table/table_builder.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace wallbench {
namespace {

constexpr int kReps = 5;
constexpr uint64_t kKeys = 50000;

// Stores the CRC results so the timed loop cannot be optimised away.
volatile uint32_t g_sink = 0;

// Median over kReps batches of ns per op; `batch` runs one batch and
// returns the number of ops it did.
template <typename F>
double NsPerOp(F&& batch) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; r++) {
    const int64_t t0 = NowNs();
    const uint64_t ops = batch();
    per_op.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(std::max<uint64_t>(ops, 1)));
  }
  return Median(per_op);
}

}  // namespace

void ProbeLayers(uint64_t seed, Checker* checker, RunResult* out) {
  elmo::Random64 rng(seed ^ 0x1a7e2);
  std::vector<std::string> keys;
  std::vector<std::string> values;
  keys.reserve(kKeys);
  values.reserve(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) {
    keys.push_back(Key(rng.Uniform(kKeys * 20)));
    values.emplace_back();
    MakeValue(keys.back(), 0, seed, &values.back());
  }
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<uint64_t> order(kKeys);
  for (auto& o : order) o = rng.Uniform(kKeys);

  // util: CRC32C over 4 KiB blocks.
  std::string block(4096, '\0');
  for (auto& c : block) c = static_cast<char>(rng.Next());
  uint32_t crc_sink = 0;
  const double crc_ns = NsPerOp([&] {
    for (int i = 0; i < 2000; i++) {
      crc_sink ^= elmo::crc32c::Value(block.data(), block.size());
    }
    return uint64_t{2000 * 4};  // KiB
  });
  g_sink = crc_sink;
  out->Add("util.crc32c_ns_per_kb", crc_ns, "ns");

  // lsm: WAL record append of a one-Put write batch.
  elmo::MemEnv env;
  const double wal_ns = NsPerOp([&] {
    std::unique_ptr<elmo::WritableFile> file;
    env.NewWritableFile("/probe.log", &file);
    elmo::log::Writer writer(file.get());
    elmo::WriteBatch batch;
    for (uint64_t i = 0; i < kKeys; i++) {
      batch.Clear();
      batch.Put(keys[i], values[i]);
      writer.AddRecord(batch.Contents());
    }
    return kKeys;
  });
  out->Add("lsm.wal_add_record_ns", wal_ns, "ns");

  // lsm: memtable insert and probe.
  const elmo::InternalKeyComparator icmp(elmo::BytewiseComparator());
  std::unique_ptr<elmo::MemTable> mem;
  const double mem_add_ns = NsPerOp([&] {
    mem = std::make_unique<elmo::MemTable>(icmp);
    for (uint64_t i = 0; i < kKeys; i++) {
      mem->Add(i + 1, elmo::kTypeValue, keys[i], values[i]);
    }
    return kKeys;
  });
  out->Add("lsm.memtable_add_ns", mem_add_ns, "ns");
  const double mem_get_ns = NsPerOp([&] {
    std::string v;
    for (uint64_t i = 0; i < kKeys; i++) {
      elmo::LookupKey lk(keys[order[i]], elmo::kMaxSequenceNumber);
      elmo::Status s;
      if (!mem->Get(lk, &v, &s) || v.size() != kValueSize) {
        checker->Fail("memtable probe missed " + keys[order[i]]);
      }
    }
    return kKeys;
  });
  out->Add("lsm.memtable_get_ns", mem_get_ns, "ns");

  // table: bloom probe of present keys (10 bits per key).
  elmo::BloomFilterPolicy bloom(10);
  std::vector<elmo::Slice> slices(keys.begin(), keys.end());
  std::string filter;
  bloom.CreateFilter(slices.data(), static_cast<int>(slices.size()), &filter);
  const double bloom_ns = NsPerOp([&] {
    for (uint64_t i = 0; i < kKeys; i++) {
      if (!bloom.KeyMayMatch(keys[order[i]], filter)) {
        checker->Fail("bloom false negative " + keys[order[i]]);
      }
    }
    return kKeys;
  });
  out->Add("table.bloom_probe_ns", bloom_ns, "ns");

  // table: seek in one 4 KiB data block (restart interval 16).
  elmo::BlockBuilder builder(16);
  std::vector<std::string> in_block;
  for (const auto& k : sorted) {
    if (builder.CurrentSizeEstimate() >= 4096) break;
    builder.Add(k, values[0]);
    in_block.push_back(k);
  }
  elmo::Block data_block(builder.Finish().ToString());
  std::unique_ptr<elmo::Iterator> it =
      data_block.NewIterator(elmo::BytewiseComparator());
  const double seek_ns = NsPerOp([&] {
    for (uint64_t i = 0; i < kKeys; i++) {
      const std::string& target = in_block[order[i] % in_block.size()];
      it->Seek(target);
      if (!it->Valid() || it->key() != elmo::Slice(target)) {
        checker->Fail("block seek missed " + target);
      }
    }
    return kKeys;
  });
  out->Add("table.block_seek_ns", seek_ns, "ns");

  // table: block-cache hit path (8 MiB LRU of 4 KiB blocks).
  std::shared_ptr<elmo::Cache> cache = elmo::NewLruCache(8 << 20);
  const uint64_t cached = (8 << 20) / 4096 / 2;
  for (uint64_t i = 0; i < cached; i++) {
    cache->Insert(keys[i], std::make_shared<std::string>(values[i]), 4096);
  }
  const double cache_ns = NsPerOp([&] {
    for (uint64_t i = 0; i < kKeys; i++) {
      const std::string& k = keys[order[i] % cached];
      if (cache->Lookup(k) == nullptr) checker->Fail("cache lookup missed " + k);
    }
    return kKeys;
  });
  out->Add("table.cache_lookup_ns", cache_ns, "ns");

  // table: SST building with a bloom filter, per added entry.
  elmo::TableBuildOptions topts;
  topts.filter_policy = &bloom;
  const double build_ns = NsPerOp([&] {
    std::unique_ptr<elmo::WritableFile> file;
    env.NewWritableFile("/probe.sst", &file);
    elmo::TableBuilder tb(topts, file.get());
    for (const auto& k : sorted) tb.Add(k, values[0]);
    if (!tb.Finish().ok()) checker->Fail("table build failed");
    return static_cast<uint64_t>(sorted.size());
  });
  out->Add("table.builder_add_ns", build_ns, "ns");
  checker->Attempted(kReps * (4 * kKeys + 1));
}

}  // namespace wallbench
