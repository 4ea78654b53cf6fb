#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace elmo::crc32c {
namespace {

TEST(Crc32c, StandardVectors) {
  // Known CRC32C test vectors (iSCSI polynomial).
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, Value(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(0x46dd794eu, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(0x113fdb5cu, Value(buf, sizeof(buf)));
}

TEST(Crc32c, iSCSIReadCommand) {
  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u,
            Value(reinterpret_cast<char*>(data), sizeof(data)));
}

TEST(Crc32c, DifferentInputsDiffer) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("foo", 3), Value("bar", 3));
}

TEST(Crc32c, ExtendEqualsConcat) {
  std::string hello = "hello ";
  std::string world = "world";
  std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(),
                   world.size()));
}

TEST(Crc32c, MaskRoundTrip) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(0u, Value("", 0));
}

// The hardware path must give the table loop's value for every length
// around its 8-byte stride, from every start misalignment, from any
// starting crc, and when Extend is chained over arbitrary splits.
class Crc32cDifferential : public testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(301);
    buf_.resize(2048 + 8);
    for (char& c : buf_) c = static_cast<char>(rng());
  }
  std::vector<char> buf_;
};

TEST_F(Crc32cDifferential, HardwareMatchesPortable) {
  if (!internal::HasHardware()) GTEST_SKIP() << "CPU has no SSE4.2 crc32";
  std::mt19937 rng(7);
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t n = 0; n <= 2048; n++) {
      const char* p = buf_.data() + offset;
      const uint32_t init = rng();
      ASSERT_EQ(internal::ExtendPortable(0, p, n),
                internal::ExtendHardware(0, p, n))
          << "offset=" << offset << " n=" << n;
      ASSERT_EQ(internal::ExtendPortable(init, p, n),
                internal::ExtendHardware(init, p, n))
          << "offset=" << offset << " n=" << n << " init=" << init;
    }
  }
}

TEST_F(Crc32cDifferential, ExtendChainedOverRandomSplits) {
  std::mt19937 rng(11);
  for (int round = 0; round < 500; round++) {
    const size_t n = rng() % 2049;
    const char* p = buf_.data() + rng() % 8;
    const uint32_t whole = internal::ExtendPortable(0, p, n);
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < n) {
      const size_t piece = std::min<size_t>(n - pos, rng() % 40);
      crc = Extend(crc, p + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(whole, crc) << "round=" << round << " n=" << n;
    ASSERT_EQ(whole, Value(p, n));
  }
}

}  // namespace
}  // namespace elmo::crc32c
