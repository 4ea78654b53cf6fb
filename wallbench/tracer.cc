#include "tracer.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace wallbench {
namespace {

constexpr int kNames = static_cast<int>(SpanName::kCount);
constexpr int kMaxDepth = 16;
// Stored spans across all threads; the per-name sums cover every span.
constexpr uint64_t kMaxStored = 1 << 17;

struct Span {
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
  SpanName name;
};

struct ThreadBuf {
  uint64_t index = 0;
  uint64_t next_seq = 1;
  std::vector<Span> spans;
  SpanTotals totals[kNames];
};

struct Open {
  uint64_t id;
  int64_t start_ns;
  int64_t child_ns;
  SpanName name;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_stored{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

thread_local ThreadBuf* t_buf = nullptr;
thread_local Open t_stack[kMaxDepth];
thread_local int t_depth = 0;
thread_local uint64_t t_request = 0;

ThreadBuf* Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> l(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->index = g_bufs.size();
  }
  return t_buf;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kDbPut: return "DB::Put";
    case SpanName::kDbGet: return "DB::Get";
    case SpanName::kDbDrain: return "DB::WaitForBackgroundWork";
    case SpanName::kDbCompactRange: return "DB::CompactRange";
    case SpanName::kDbFlush: return "DB::FlushMemTable";
    case SpanName::kEnvWalWrite: return "Env.wal.append";
    case SpanName::kEnvSstWrite: return "Env.sst.append";
    case SpanName::kEnvManifestWrite: return "Env.manifest.append";
    case SpanName::kEnvOtherWrite: return "Env.other.append";
    case SpanName::kEnvSync: return "Env.sync";
    case SpanName::kEnvSstRead: return "Env.sst.read";
    case SpanName::kEnvOtherRead: return "Env.other.read";
    case SpanName::kLlmComplete: return "LlmClient::Complete";
    case SpanName::kBenchRun: return "BenchRunner::Run";
    case SpanName::kBenchProbe: return "BenchRunner::RunProbe";
    case SpanName::kTuningSession: return "TuningSession::Run";
    case SpanName::kCount: break;
  }
  return "?";
}

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
void SetRequestId(uint64_t request) { t_request = request; }

ScopedSpan::ScopedSpan(SpanName name) {
  if (!TracingEnabled() || t_depth >= kMaxDepth) return;
  ThreadBuf* buf = Buf();
  t_stack[t_depth++] = {(buf->index << 40) | buf->next_seq++, NowNs(), 0,
                        name};
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNs();
  const Open open = t_stack[--t_depth];
  const int64_t dur = end - open.start_ns;
  const uint64_t parent = t_depth > 0 ? t_stack[t_depth - 1].id : 0;
  if (t_depth > 0) t_stack[t_depth - 1].child_ns += dur;
  SpanTotals& tot = t_buf->totals[static_cast<int>(open.name)];
  tot.count++;
  tot.total_ns += dur;
  tot.self_ns += dur - open.child_ns;
  if (g_stored.fetch_add(1, std::memory_order_relaxed) < kMaxStored) {
    t_buf->spans.push_back(
        {open.id, parent, t_request, open.start_ns, end, open.name});
  }
}

SpanTotals TotalsFor(SpanName name) {
  std::lock_guard<std::mutex> l(g_mu);
  SpanTotals sum;
  for (const auto& buf : g_bufs) {
    const SpanTotals& t = buf->totals[static_cast<int>(name)];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

uint64_t SpansRecorded() {
  std::lock_guard<std::mutex> l(g_mu);
  uint64_t n = 0;
  for (const auto& buf : g_bufs) {
    for (const SpanTotals& t : buf->totals) n += t.count;
  }
  return n;
}

bool WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> l(g_mu);
  for (const auto& buf : g_bufs) {
    for (const Span& s : buf->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"thread\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(buf->index),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace wallbench
