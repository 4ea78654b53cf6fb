#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench_kit/generators.h"

namespace wallbench {
namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

uint64_t HashKey(const std::string& key) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : key) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

constexpr size_t kHeader = 16 + 1 + 16 + 1;  // key '@' version '#'

void FillPattern(const std::string& key, uint64_t version, uint64_t seed,
                 char* dst, size_t n) {
  uint64_t x = Mix(HashKey(key) ^ Mix(version + 1) ^ seed);
  for (size_t i = 0; i < n; i++) {
    if (i % 16 == 0) x = Mix(x + i);
    dst[i] = static_cast<char>('a' + ((x >> ((i % 16) * 4)) & 15));
  }
}

}  // namespace

std::string Key(uint64_t index) { return elmo::bench::MakeKey(index); }

void MakeValue(const std::string& key, uint64_t version, uint64_t seed,
               std::string* out) {
  out->resize(kValueSize);
  char* p = out->data();
  std::memcpy(p, key.data(), 16);
  p[16] = '@';
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, version);
  std::memcpy(p + 17, hex, 16);
  p[33] = '#';
  FillPattern(key, version, seed, p + kHeader, kValueSize - kHeader);
}

bool CheckValue(const std::string& key, const std::string& value,
                uint64_t seed, uint64_t* version) {
  if (value.size() != kValueSize || key.size() != 16) return false;
  if (std::memcmp(value.data(), key.data(), 16) != 0) return false;
  if (value[16] != '@' || value[33] != '#') return false;
  uint64_t v = 0;
  for (int i = 17; i < 33; i++) {
    const char c = value[i];
    int d = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (d < 0) return false;
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  char expect[kValueSize];
  FillPattern(key, v, seed, expect, kValueSize - kHeader);
  if (std::memcmp(value.data() + kHeader, expect, kValueSize - kHeader) != 0) {
    return false;
  }
  *version = v;
  return true;
}

void Latencies::Add(int64_t ns) {
  if (count_++ % stride_ != 0) return;
  if (ns_.size() == kKept) {
    for (size_t i = 0; i < kKept / 2; i++) ns_[i] = ns_[2 * i];
    ns_.resize(kKept / 2);
    stride_ *= 2;
    if ((count_ - 1) % stride_ != 0) return;
  }
  if (ns_.empty()) ns_.reserve(kKept);
  ns_.push_back(ns < 0 ? 0u
                       : static_cast<uint32_t>(std::min<int64_t>(ns, UINT32_MAX)));
}

void Latencies::Append(const Latencies& other) {
  for (uint32_t ns : other.ns_) {
    for (uint64_t i = 0; i < other.stride_; i++) Add(ns);
  }
}

double Latencies::PercentileUs(double p) const {
  if (ns_.empty()) return 0;
  std::vector<uint32_t>& v = ns_;
  size_t rank = static_cast<size_t>(p / 100.0 * v.size());
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank] / 1000.0;
}

double Latencies::SecondsAbove(double threshold_ns) const {
  double sum = 0;
  for (uint32_t ns : ns_) {
    if (ns > threshold_ns) sum += ns;
  }
  return sum * static_cast<double>(stride_) / 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

void Checker::Fail(const std::string& what) {
  if (failed_.fetch_add(1) == 0) {
    std::lock_guard<std::mutex> l(mu_);
    first_bad_ = what;
  }
}

std::string Checker::first_bad() const {
  std::lock_guard<std::mutex> l(mu_);
  return first_bad_;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

uint64_t DbWrittenBytes(CountingEnv* env) {
  return env->Counts(FileKind::kWal).write_bytes +
         env->Counts(FileKind::kSst).write_bytes +
         env->Counts(FileKind::kManifest).write_bytes;
}

}  // namespace

elmo::Status Store::Open(elmo::lsm::Options options) {
  options.env = &env;
  options.create_if_missing = true;
  elmo::Status s = Close();
  if (!s.ok()) return s;
  written_at_open_ = DbWrittenBytes(&env);
  return elmo::lsm::DB::Open(options, kDbName, &db);
}

elmo::Status Store::Close() {
  if (db == nullptr) return elmo::Status::OK();
  db.reset();
  elmo::lsm::Options options;
  options.env = &env;
  return elmo::lsm::DB::DestroyDB(kDbName, options);
}

uint64_t Store::WrittenBytes() { return DbWrittenBytes(&env) - written_at_open_; }

elmo::Status TracedPut(elmo::lsm::DB* db, const std::string& key,
                      const std::string& value) {
  ScopedSpan span(SpanName::kDbPut);
  return db->Put({}, key, value);
}

elmo::Status TracedGet(elmo::lsm::DB* db, const std::string& key,
                      std::string* value) {
  ScopedSpan span(SpanName::kDbGet);
  GetScope get;
  return db->Get({}, key, value);
}

elmo::Status Drain(elmo::lsm::DB* db) {
  ScopedSpan span(SpanName::kDbDrain);
  return db->WaitForBackgroundWork();
}

elmo::Status LoadSorted(Store* store, uint64_t n, uint64_t seed,
                        Latencies* puts) {
  elmo::lsm::DB* db = store->db.get();
  // A memtable entry of a 16/100-byte pair takes about 150 bytes.
  const uint64_t batch = db->options().write_buffer_size * 3 / 4 / 150;
  std::string value;
  for (uint64_t lo = 0; lo < n; lo += batch) {
    const uint64_t hi = std::min(n, lo + batch);
    for (uint64_t i = lo; i < hi; i++) {
      const std::string key = Key(i);
      MakeValue(key, 0, seed, &value);
      const int64_t t0 = NowNs();
      elmo::Status s = TracedPut(db, key, value);
      puts->Add(NowNs() - t0);
      if (!s.ok()) return s;
    }
    elmo::Status s;
    {
      ScopedSpan span(SpanName::kDbFlush);
      s = db->FlushMemTable();
    }
    if (!s.ok()) return s;
    const std::string first = Key(lo), last = Key(hi - 1);
    const elmo::Slice begin(first), end(last);
    {
      ScopedSpan span(SpanName::kDbCompactRange);
      s = db->CompactRange(&begin, &end);
    }
    if (!s.ok()) return s;
  }
  return Drain(db);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void ReleaseFreedMemory() { malloc_trim(0); }

}  // namespace wallbench
