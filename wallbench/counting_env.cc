#include "counting_env.h"

#include "tracer.h"

namespace wallbench {
namespace {

using elmo::Slice;
using elmo::Status;

thread_local bool t_in_get = false;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

FileKind KindOf(const std::string& fname) {
  if (EndsWith(fname, ".log")) return FileKind::kWal;
  if (EndsWith(fname, ".sst")) return FileKind::kSst;
  if (fname.find("/MANIFEST-") != std::string::npos) return FileKind::kManifest;
  return FileKind::kOther;
}

SpanName WriteSpan(FileKind kind) {
  switch (kind) {
    case FileKind::kWal: return SpanName::kEnvWalWrite;
    case FileKind::kSst: return SpanName::kEnvSstWrite;
    case FileKind::kManifest: return SpanName::kEnvManifestWrite;
    default: return SpanName::kEnvOtherWrite;
  }
}

void Bump(std::atomic<uint64_t>& c, uint64_t n) {
  c.fetch_add(n, std::memory_order_relaxed);
}

class CountingWritableFile : public elmo::WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<elmo::WritableFile> base,
                       FileKind kind, CountingEnv::Counters* c)
      : base_(std::move(base)), kind_(kind), c_(c) {}

  Status Append(const Slice& data) override {
    ScopedSpan span(WriteSpan(kind_));
    Bump(c_->writes, 1);
    Bump(c_->write_bytes, data.size());
    return base_->Append(data);
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    ScopedSpan span(SpanName::kEnvSync);
    Bump(c_->syncs, 1);
    return base_->Sync();
  }
  Status RangeSync(uint64_t offset) override {
    ScopedSpan span(SpanName::kEnvSync);
    Bump(c_->syncs, 1);
    return base_->RangeSync(offset);
  }
  uint64_t GetFileSize() const override { return base_->GetFileSize(); }

 private:
  std::unique_ptr<elmo::WritableFile> base_;
  const FileKind kind_;
  CountingEnv::Counters* const c_;
};

class CountingRandomAccessFile : public elmo::RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<elmo::RandomAccessFile> base,
                           FileKind kind, CountingEnv::Counters* c,
                           CountingEnv::Counters* get_path)
      : base_(std::move(base)), kind_(kind), c_(c), get_path_(get_path) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(kind_ == FileKind::kSst ? SpanName::kEnvSstRead
                                            : SpanName::kEnvOtherRead);
    Status s = base_->Read(offset, n, result, scratch);
    Bump(c_->reads, 1);
    Bump(c_->read_bytes, result->size());
    if (t_in_get && kind_ == FileKind::kSst) {
      Bump(get_path_->reads, 1);
      Bump(get_path_->read_bytes, result->size());
    }
    return s;
  }
  void Readahead(uint64_t offset, uint64_t length) override {
    base_->Readahead(offset, length);
  }

 private:
  std::unique_ptr<elmo::RandomAccessFile> base_;
  const FileKind kind_;
  CountingEnv::Counters* const c_;
  CountingEnv::Counters* const get_path_;
};

class CountingSequentialFile : public elmo::SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<elmo::SequentialFile> base,
                         CountingEnv::Counters* c)
      : base_(std::move(base)), c_(c) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ScopedSpan span(SpanName::kEnvOtherRead);
    Status s = base_->Read(n, result, scratch);
    Bump(c_->reads, 1);
    Bump(c_->read_bytes, result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<elmo::SequentialFile> base_;
  CountingEnv::Counters* const c_;
};

KindCounts Load(const CountingEnv::Counters& c) {
  KindCounts k;
  k.reads = c.reads.load(std::memory_order_relaxed);
  k.read_bytes = c.read_bytes.load(std::memory_order_relaxed);
  k.writes = c.writes.load(std::memory_order_relaxed);
  k.write_bytes = c.write_bytes.load(std::memory_order_relaxed);
  k.syncs = c.syncs.load(std::memory_order_relaxed);
  return k;
}

}  // namespace

GetScope::GetScope() { t_in_get = true; }
GetScope::~GetScope() { t_in_get = false; }

KindCounts CountingEnv::Counts(FileKind kind) const {
  return Load(counters_[static_cast<int>(kind)]);
}

KindCounts CountingEnv::GetPathSstCounts() const { return Load(get_path_sst_); }

uint64_t CountingEnv::FileBytes(const std::string& dir, FileKind kind) {
  std::vector<std::string> children;
  if (!base_->GetChildren(dir, &children).ok()) return 0;
  uint64_t total = 0;
  for (const auto& name : children) {
    const std::string path = dir + "/" + name;
    uint64_t size = 0;
    if (KindOf(path) == kind && base_->GetFileSize(path, &size).ok()) {
      total += size;
    }
  }
  return total;
}

uint64_t CountingEnv::FileBytes(const std::string& dir) {
  uint64_t total = 0;
  for (int k = 0; k < static_cast<int>(FileKind::kCount); k++) {
    total += FileBytes(dir, static_cast<FileKind>(k));
  }
  return total;
}

Status CountingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<elmo::SequentialFile>* result) {
  std::unique_ptr<elmo::SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (s.ok()) {
    *result = std::make_unique<CountingSequentialFile>(std::move(base),
                                                       counters(KindOf(fname)));
  }
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<elmo::RandomAccessFile>* result) {
  std::unique_ptr<elmo::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (s.ok()) {
    const FileKind kind = KindOf(fname);
    *result = std::make_unique<CountingRandomAccessFile>(
        std::move(base), kind, counters(kind), &get_path_sst_);
  }
  return s;
}

Status CountingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<elmo::WritableFile>* result) {
  std::unique_ptr<elmo::WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (s.ok()) {
    const FileKind kind = KindOf(fname);
    *result = std::make_unique<CountingWritableFile>(std::move(base), kind,
                                                     counters(kind));
  }
  return s;
}

}  // namespace wallbench
