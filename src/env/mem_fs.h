// MemFs: a thread-safe in-memory filesystem core shared by MemEnv (real
// clock) and SimEnv (virtual clock + device model). Paths are flat
// strings; directories exist implicitly but are tracked so GetChildren
// and RemoveDir behave like POSIX.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace elmo {

class MemFs {
 public:
  // One file's bytes, kept in chunks so an append never re-copies what
  // is already written. Chunk i holds kMinChunk << i bytes, up to
  // kMaxChunk: a small file stays small, a large one grows by a fixed
  // kMaxChunk at a time. Every call takes the file's own mutex.
  class FileNode {
   public:
    uint64_t Size() const;
    // Appends n bytes; returns the new size.
    uint64_t Append(const char* data, size_t n);
    // Copies up to n bytes at `offset` into dst and sets *copied. False
    // (and *copied = 0) when `offset` is at or past the end.
    bool Read(uint64_t offset, size_t n, char* dst, size_t* copied) const;
    // Runs `edit` on a flat copy of the bytes and stores back what it
    // leaves, all under the file's mutex.
    void Edit(const std::function<void(std::string*)>& edit);

   private:
    static constexpr size_t kMinChunk = 256;
    static constexpr size_t kMaxChunk = 64 << 10;

    static size_t ChunkSize(size_t chunk);
    // Chunk holding byte `offset` and the position inside it.
    static void Locate(uint64_t offset, size_t* chunk, size_t* within);
    void AppendLocked(const char* data, size_t n);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<char[]>> chunks_;
    uint64_t size_ = 0;
  };
  using FileRef = std::shared_ptr<FileNode>;

  Status Open(const std::string& fname, FileRef* out) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::NotFound(fname);
    *out = it->second;
    return Status::OK();
  }

  // Create (truncating any existing file).
  FileRef Create(const std::string& fname) {
    std::lock_guard<std::mutex> l(mu_);
    auto node = std::make_shared<FileNode>();
    files_[fname] = node;
    return node;
  }

  bool Exists(const std::string& fname) {
    std::lock_guard<std::mutex> l(mu_);
    return files_.count(fname) > 0 || dirs_.count(fname) > 0;
  }

  Status GetChildren(const std::string& dir, std::vector<std::string>* out) {
    out->clear();
    std::string prefix = dir;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    std::lock_guard<std::mutex> l(mu_);
    if (dirs_.count(dir) == 0) return Status::NotFound(dir);
    std::set<std::string> children;
    for (const auto& [path, node] : files_) {
      if (path.size() > prefix.size() &&
          path.compare(0, prefix.size(), prefix) == 0) {
        std::string rest = path.substr(prefix.size());
        size_t slash = rest.find('/');
        children.insert(slash == std::string::npos ? rest
                                                   : rest.substr(0, slash));
      }
    }
    for (const auto& d : dirs_) {
      if (d.size() > prefix.size() &&
          d.compare(0, prefix.size(), prefix) == 0) {
        std::string rest = d.substr(prefix.size());
        size_t slash = rest.find('/');
        children.insert(slash == std::string::npos ? rest
                                                   : rest.substr(0, slash));
      }
    }
    out->assign(children.begin(), children.end());
    return Status::OK();
  }

  Status Remove(const std::string& fname) {
    std::lock_guard<std::mutex> l(mu_);
    if (files_.erase(fname) == 0) return Status::NotFound(fname);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dirname) {
    std::lock_guard<std::mutex> l(mu_);
    dirs_.insert(dirname);
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) {
    std::lock_guard<std::mutex> l(mu_);
    if (dirs_.erase(dirname) == 0) return Status::NotFound(dirname);
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) {
    FileRef ref;
    Status s = Open(fname, &ref);
    if (!s.ok()) return s;
    *size = ref->Size();
    return Status::OK();
  }

  // Rewrites a file's bytes in place: `edit` gets a copy of the contents
  // and whatever it leaves is stored back. Lets tests corrupt, truncate
  // or extend a file.
  Status EditFile(const std::string& fname,
                  const std::function<void(std::string*)>& edit) {
    FileRef ref;
    Status s = Open(fname, &ref);
    if (!s.ok()) return s;
    ref->Edit(edit);
    return Status::OK();
  }

  Status Rename(const std::string& src, const std::string& target) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(src);
    if (it == files_.end()) return Status::NotFound(src);
    files_[target] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  // Total bytes stored across all files (the simulated "dataset size",
  // used by SimEnv's page-cache model).
  uint64_t TotalBytes() {
    std::lock_guard<std::mutex> l(mu_);
    uint64_t total = 0;
    for (const auto& [path, node] : files_) total += node->Size();
    return total;
  }

  // --- disk-capacity model (0 = unlimited, the default) ---
  // When a capacity is set, appends that would push TotalBytes past it
  // fail with Status::NoSpace; Env::GetFreeSpace reports the remainder.
  // This is what makes the engine's NoSpace pause/resume path testable:
  // shrink the capacity to force the pause, raise it (or delete files)
  // to let the free-space monitor resume background work.
  void SetCapacity(uint64_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t Capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  uint64_t FreeBytes() {
    const uint64_t cap = Capacity();
    if (cap == 0) return UINT64_MAX;
    const uint64_t used = TotalBytes();
    return used >= cap ? 0 : cap - used;
  }
  // Admission check writers run before appending `n` bytes. Callers
  // must not hold a file mutex (TotalBytes takes the fs mutex).
  Status ReserveAppend(uint64_t n) {
    const uint64_t cap = Capacity();
    if (cap == 0) return Status::OK();
    if (TotalBytes() + n > cap) {
      return Status::NoSpace("mem filesystem capacity exceeded");
    }
    return Status::OK();
  }

 private:
  std::mutex mu_;
  std::map<std::string, FileRef> files_;
  std::set<std::string> dirs_;
  std::atomic<uint64_t> capacity_{0};
};

}  // namespace elmo
