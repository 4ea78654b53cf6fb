#include "env/mem_fs.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace elmo {

namespace {
// Chunks before the first kMaxChunk one, and the bytes they hold.
constexpr size_t kGrowthChunks = 8;
}  // namespace

size_t MemFs::FileNode::ChunkSize(size_t chunk) {
  static_assert(kMinChunk << kGrowthChunks == kMaxChunk);
  return chunk < kGrowthChunks ? kMinChunk << chunk : kMaxChunk;
}

void MemFs::FileNode::Locate(uint64_t offset, size_t* chunk,
                             size_t* within) {
  constexpr uint64_t kGrowthBytes = kMaxChunk - kMinChunk;
  if (offset < kGrowthBytes) {
    // Chunk i starts at kMinChunk * (2^i - 1).
    *chunk = static_cast<size_t>(std::bit_width(offset / kMinChunk + 1)) - 1;
    *within = offset - kMinChunk * ((uint64_t{1} << *chunk) - 1);
  } else {
    *chunk = kGrowthChunks + (offset - kGrowthBytes) / kMaxChunk;
    *within = (offset - kGrowthBytes) % kMaxChunk;
  }
}

uint64_t MemFs::FileNode::Size() const {
  std::lock_guard<std::mutex> l(mu_);
  return size_;
}

uint64_t MemFs::FileNode::Append(const char* data, size_t n) {
  std::lock_guard<std::mutex> l(mu_);
  AppendLocked(data, n);
  return size_;
}

void MemFs::FileNode::AppendLocked(const char* data, size_t n) {
  while (n > 0) {
    size_t chunk, within;
    Locate(size_, &chunk, &within);
    if (chunk == chunks_.size()) {
      // Uninitialized: every byte is written before it is read.
      chunks_.emplace_back(new char[ChunkSize(chunk)]);
    }
    const size_t step = std::min(n, ChunkSize(chunk) - within);
    memcpy(chunks_[chunk].get() + within, data, step);
    data += step;
    n -= step;
    size_ += step;
  }
}

bool MemFs::FileNode::Read(uint64_t offset, size_t n, char* dst,
                           size_t* copied) const {
  std::lock_guard<std::mutex> l(mu_);
  *copied = 0;
  if (offset >= size_) return false;
  n = static_cast<size_t>(std::min<uint64_t>(n, size_ - offset));
  size_t chunk, within;
  Locate(offset, &chunk, &within);
  while (*copied < n) {
    const size_t step = std::min(n - *copied, ChunkSize(chunk) - within);
    memcpy(dst + *copied, chunks_[chunk].get() + within, step);
    *copied += step;
    chunk++;
    within = 0;
  }
  return true;
}

void MemFs::FileNode::Edit(const std::function<void(std::string*)>& edit) {
  std::lock_guard<std::mutex> l(mu_);
  std::string contents;
  contents.reserve(size_);
  for (size_t chunk = 0; contents.size() < size_; chunk++) {
    const uint64_t n =
        std::min<uint64_t>(ChunkSize(chunk), size_ - contents.size());
    contents.append(chunks_[chunk].get(), n);
  }
  edit(&contents);
  chunks_.clear();
  size_ = 0;
  AppendLocked(contents.data(), contents.size());
}

}  // namespace elmo
