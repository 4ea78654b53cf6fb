// CRC32C (Castagnoli) with the leveldb-style Mask/Unmask helpers used
// when the checksum itself is stored inside checksummed data. Extend
// runs the SSE4.2 `crc32` instruction when the CPU has it (checked once
// at run time) and a byte-at-a-time table loop otherwise; both give the
// same value for every input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace elmo::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// The two implementations Extend dispatches between, exposed so a test
// can compare them. Production code calls Extend.
namespace internal {
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
// Call only when HasHardware(). Off x86-64 it is the portable loop.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
bool HasHardware();
}  // namespace internal

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Rotate right 15 bits and add a constant so that a crc of a string
// containing embedded crcs does not degenerate.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace elmo::crc32c
