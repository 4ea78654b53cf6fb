#include "bench_kit/generators.h"

#include <algorithm>
#include <cmath>

namespace elmo::bench {

std::string MakeKey(uint64_t index) {
  // The first 16 characters of "%016llu": zero-padded to 16 digits, and
  // an index of 17 or more digits keeps its leading 16.
  char buf[20];
  size_t pos = sizeof(buf);
  do {
    buf[--pos] = static_cast<char>('0' + index % 10);
    index /= 10;
  } while (index != 0);
  while (pos > sizeof(buf) - 16) buf[--pos] = '0';
  return std::string(buf + pos, 16);
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta, uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  // Incremental zeta is O(n); n stays <= a few hundred thousand here.
  zetan_ = Zeta(n_, theta_);
  const double zeta2 = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / n_, 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  threshold_ = 1.0 + std::pow(0.5, theta_);
}

double ZipfianGenerator::Zeta(uint64_t n, double theta) const {
  double sum = 0;
  for (uint64_t i = 1; i <= n; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfianGenerator::Next() {
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < threshold_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(
        n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  // Scramble so hot keys are spread across the key space (FNV-style).
  uint64_t h = rank * 0x9e3779b97f4a7c15ull;
  h ^= h >> 29;
  return h % n_;
}

ParetoValueSize::ParetoValueSize(double k, double sigma, double loc,
                                 uint64_t seed, uint32_t min_size,
                                 uint32_t max_size)
    : k_(k),
      sigma_(sigma),
      loc_(loc),
      min_size_(min_size),
      max_size_(max_size),
      rng_(seed) {}

uint32_t ParetoValueSize::Next() {
  double u = rng_.NextDouble();
  if (u >= 1.0) u = 0.9999999;
  double size;
  if (k_ == 0.0) {
    size = loc_ - sigma_ * std::log(1.0 - u);
  } else {
    size = loc_ + sigma_ * (std::pow(1.0 - u, -k_) - 1.0) / k_;
  }
  if (size < min_size_) return min_size_;
  if (size > max_size_) return max_size_;
  return static_cast<uint32_t>(size);
}

ValueGenerator::ValueGenerator(uint64_t seed) : rng_(seed) {
  buffer_.reserve(8192);
}

Slice ValueGenerator::Generate(uint32_t size) {
  buffer_.resize(size);
  // Fill 8 bytes at a time with pseudo-random data (incompressible,
  // like db_bench's default compression_ratio=0.5 upper half).
  size_t i = 0;
  while (i + 8 <= size) {
    uint64_t v = rng_.Next();
    memcpy(buffer_.data() + i, &v, 8);
    i += 8;
  }
  while (i < size) {
    buffer_[i++] = static_cast<char>('a' + (rng_.Next() % 26));
  }
  return Slice(buffer_);
}

}  // namespace elmo::bench
