#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ELMO_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace elmo::crc32c {

namespace {

// Build the 256-entry CRC32C lookup table at static-init time.
struct Table {
  std::array<uint32_t, 256> t{};
  Table() {
    const uint32_t poly = 0x82f63b78u;  // reversed 0x1EDC6F41
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc & 1) ? (crc >> 1) ^ poly : crc >> 1;
      }
      t[i] = crc;
    }
  }
};

const Table kTable;

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
  return internal::HasHardware() ? internal::ExtendHardware
                                 : internal::ExtendPortable;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#ifdef ELMO_CRC32C_X86

bool HasHardware() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// The SSE4.2 `crc32` instruction computes exactly this polynomial's
// reflected update, so it is a drop-in for the table loop: bytes up to
// the first 8-byte boundary, then 8 bytes per instruction, then the
// tail. Only this function is compiled for SSE4.2; the rest of the
// build keeps the baseline instruction set.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  const uint8_t* const end = p + n;
  while (p != end && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  while (end - p >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
  }
  while (p != end) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

#else

bool HasHardware() { return false; }

uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}

#endif

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Chosen once, on first use, so a CRC taken by another translation
  // unit's static initializer is still dispatched correctly.
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace elmo::crc32c
