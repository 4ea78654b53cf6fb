// Binary encoding primitives: little-endian fixed-width integers and
// varints, plus length-prefixed slices. Used by the WAL, SST blocks and
// the manifest.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace elmo {

inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));  // little-endian hosts only
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

// Low-level varint encoders; return a pointer just past the last byte
// written. dst must have at least 5 (32-bit) / 10 (64-bit) bytes available.
char* EncodeVarint32(char* dst, uint32_t value);
char* EncodeVarint64(char* dst, uint64_t value);

// Parsers advance *input past the consumed bytes; return false on
// truncated/corrupt input.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

// Pointer-based parsers used in hot paths; return nullptr on failure.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

int VarintLength(uint64_t v);

}  // namespace elmo
