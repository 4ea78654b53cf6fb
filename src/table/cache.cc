#include "table/cache.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string_view>

namespace elmo {

namespace {

// FNV-1a; good enough to spread block cache keys across shards.
uint32_t HashSlice(const Slice& s) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < s.size(); i++) {
    h ^= static_cast<uint8_t>(s[i]);
    h *= 16777619u;
  }
  return h;
}

// Transparent hash: with std::equal_to<> it lets map_ be probed with a
// string_view, so a lookup does not copy its (16-byte, past the SSO
// limit) key onto the heap.
struct KeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view k) const {
    return std::hash<std::string_view>{}(k);
  }
};

class LruShard {
 public:
  void SetCapacity(size_t capacity) {
    std::lock_guard<std::mutex> l(mu_);
    capacity_ = capacity;
    EvictIfNeeded();
  }

  void Insert(const Slice& key, std::shared_ptr<void> value, size_t charge) {
    std::lock_guard<std::mutex> l(mu_);
    std::string k = key.ToString();
    auto it = map_.find(k);
    if (it != map_.end()) {
      usage_ -= it->second->charge;
      lru_.erase(it->second);
      map_.erase(it);
    }
    lru_.push_front(Entry{k, std::move(value), charge});
    map_[k] = lru_.begin();
    usage_ += charge;
    stats_.inserts++;
    stats_.evictions += EvictIfNeeded();
  }

  std::shared_ptr<void> Lookup(const Slice& key) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = map_.find(key.view());
    if (it == map_.end()) {
      stats_.misses++;
      return nullptr;
    }
    stats_.hits++;
    // Move to front (most recently used).
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  Cache::Stats GetStats() const {
    std::lock_guard<std::mutex> l(mu_);
    return stats_;
  }

  void Erase(const Slice& key) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = map_.find(key.view());
    if (it == map_.end()) return;
    usage_ -= it->second->charge;
    lru_.erase(it->second);
    map_.erase(it);
  }

  size_t Usage() const {
    std::lock_guard<std::mutex> l(mu_);
    return usage_;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<void> value;
    size_t charge;
  };

  // Callers hold mu_. Returns evicted count.
  uint64_t EvictIfNeeded() {
    uint64_t evicted = 0;
    while (usage_ > capacity_ && !lru_.empty()) {
      Entry& victim = lru_.back();
      usage_ -= victim.charge;
      map_.erase(victim.key);
      lru_.pop_back();
      evicted++;
    }
    return evicted;
  }

  mutable std::mutex mu_;
  size_t capacity_ = 0;
  size_t usage_ = 0;
  Cache::Stats stats_;  // per-shard, so lookups never cross-serialize
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator, KeyHash,
                     std::equal_to<>>
      map_;
};

class ShardedLruCache : public Cache {
 public:
  ShardedLruCache(size_t capacity, int num_shard_bits)
      : shards_(1u << num_shard_bits), shard_mask_((1u << num_shard_bits) - 1) {
    capacity_ = capacity;
    const size_t per_shard =
        (capacity + shards_.size() - 1) / shards_.size();
    for (auto& s : shards_) s.SetCapacity(per_shard);
  }

  void Insert(const Slice& key, std::shared_ptr<void> value,
              size_t charge) override {
    Shard(key).Insert(key, std::move(value), charge);
  }

  std::shared_ptr<void> Lookup(const Slice& key) override {
    return Shard(key).Lookup(key);
  }

  void Erase(const Slice& key) override { Shard(key).Erase(key); }

  size_t TotalCharge() const override {
    size_t total = 0;
    for (const auto& s : shards_) total += s.Usage();
    return total;
  }

  size_t Capacity() const override { return capacity_; }

  void SetCapacity(size_t capacity) override {
    capacity_ = capacity;
    const size_t per_shard =
        (capacity + shards_.size() - 1) / shards_.size();
    for (auto& s : shards_) s.SetCapacity(per_shard);
  }

  Stats GetStats() const override {
    Stats total;
    for (const auto& s : shards_) {
      Stats shard = s.GetStats();
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.inserts += shard.inserts;
      total.evictions += shard.evictions;
    }
    return total;
  }

 private:
  LruShard& Shard(const Slice& key) {
    return shards_[HashSlice(key) & shard_mask_];
  }

  std::vector<LruShard> shards_;
  const uint32_t shard_mask_;
  size_t capacity_;
};

}  // namespace

std::shared_ptr<Cache> NewLruCache(size_t capacity, int num_shard_bits) {
  assert(num_shard_bits >= 0 && num_shard_bits <= 10);
  return std::make_shared<ShardedLruCache>(capacity, num_shard_bits);
}

}  // namespace elmo
