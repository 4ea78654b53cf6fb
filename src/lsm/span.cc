#include "lsm/span.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace elmo::lsm {

namespace {

// fixed64 root start + fixed32 thread + flags byte; spans are variable.
constexpr size_t kPayloadFixed = 8 + 4 + 1;

constexpr RecordFormat kSpanFormat = {"ELMOSPN1", 1, "span trace",
                                      kPayloadFixed + 2, 1u << 26};

}  // namespace

bool IsSpanKind(uint8_t v) {
  return (v >= static_cast<uint8_t>(SpanKind::kWrite) &&
          v <= static_cast<uint8_t>(SpanKind::kCompaction)) ||
         (v >= static_cast<uint8_t>(SpanKind::kWalAppend) &&
          v < kMaxSpanKind);
}

const char* SpanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kWrite: return "write";
    case SpanKind::kGet: return "get";
    case SpanKind::kIterSeek: return "iter_seek";
    case SpanKind::kIterNext: return "iter_next";
    case SpanKind::kFlush: return "flush";
    case SpanKind::kCompaction: return "compaction";
    case SpanKind::kWalAppend: return "wal_append";
    case SpanKind::kWalSync: return "wal_sync";
    case SpanKind::kMemtableInsert: return "memtable_insert";
    case SpanKind::kMemtableProbe: return "memtable_probe";
    case SpanKind::kSstProbe: return "sst_probe";
    case SpanKind::kStallWait: return "stall_wait";
    case SpanKind::kTableBuild: return "table_build";
    case SpanKind::kManifestApply: return "manifest_apply";
  }
  return "unknown";
}

bool IsSpanTag(uint8_t v) {
  return v >= static_cast<uint8_t>(SpanTag::kBytes) && v < kMaxSpanTag;
}

const char* SpanTagName(SpanTag t) {
  switch (t) {
    case SpanTag::kBytes: return "bytes";
    case SpanTag::kEntries: return "entries";
    case SpanTag::kFilesProbed: return "files_probed";
    case SpanTag::kLevel: return "level";
    case SpanTag::kStallReason: return "stall_reason";
    case SpanTag::kKeysSkipped: return "keys_skipped";
    case SpanTag::kCacheHit: return "cache_hit";
    case SpanTag::kCacheMiss: return "cache_miss";
    case SpanTag::kHit: return "hit";
    case SpanTag::kInputBytes: return "input_bytes";
  }
  return "unknown";
}

uint64_t SpanTree::ChildrenDuration(size_t i) const {
  uint64_t total = 0;
  for (const SpanNode& n : spans) {
    if (n.parent == static_cast<int32_t>(i)) total += n.duration_us;
  }
  return total;
}

uint64_t SpanTree::SelfDuration(size_t i) const {
  const uint64_t children = ChildrenDuration(i);
  const uint64_t dur = spans[i].duration_us;
  return dur > children ? dur - children : 0;
}

// ---------------------------------------------------------------------
// Aggregate

namespace {

// Single-writer add: the owning thread is the only one that stores.
void Bump(std::atomic<uint64_t>& a, uint64_t v) {
  a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

}  // namespace

void SpanAggregate::AddCell(const Cell& c, KindTotals* t) {
  t->count += c.count.load(std::memory_order_relaxed);
  t->total_us += c.total_us.load(std::memory_order_relaxed);
  t->max_us = std::max(t->max_us, c.max_us.load(std::memory_order_relaxed));
  t->bytes += c.bytes.load(std::memory_order_relaxed);
}

SpanAggregate::ThreadCells* SpanAggregate::LocalCells() {
  struct Slot {
    SpanAggregate* owner = nullptr;
    ThreadCells* cells = nullptr;
    ~Slot() {
      if (cells != nullptr) owner->Retire(cells);
    }
  };
  thread_local Slot slot;
  if (slot.cells == nullptr) {
    slot.owner = this;
    slot.cells = new ThreadCells;
    std::lock_guard<std::mutex> l(mu_);
    threads_.push_back(slot.cells);
  }
  return slot.cells;
}

void SpanAggregate::Retire(ThreadCells* cells) {
  std::lock_guard<std::mutex> l(mu_);
  for (uint8_t k = 0; k < kMaxSpanKind; k++) {
    AddCell(cells->cells[k], &retired_[k]);
  }
  threads_.erase(std::find(threads_.begin(), threads_.end(), cells));
  delete cells;
}

void SpanAggregate::Fold(const SpanNode* spans, size_t n) {
  ThreadCells* const local = LocalCells();
  for (size_t i = 0; i < n; i++) {
    const SpanNode& s = spans[i];
    Cell& c = local->cells[static_cast<uint8_t>(s.kind)];
    Bump(c.count, 1);
    Bump(c.total_us, s.duration_us);
    if (s.duration_us > c.max_us.load(std::memory_order_relaxed)) {
      c.max_us.store(s.duration_us, std::memory_order_relaxed);
    }
    for (const auto& [tag, value] : s.annotations) {
      if (tag == SpanTag::kBytes) Bump(c.bytes, value);
    }
  }
}

SpanAggregate::Snapshot SpanAggregate::GetSnapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> l(mu_);
  for (uint8_t k = 0; k < kMaxSpanKind; k++) {
    snap.kinds[k] = retired_[k];
    for (const ThreadCells* cells : threads_) {
      AddCell(cells->cells[k], &snap.kinds[k]);
    }
  }
  return snap;
}

void SpanAggregate::Reset() {
  std::lock_guard<std::mutex> l(mu_);
  for (uint8_t k = 0; k < kMaxSpanKind; k++) {
    retired_[k] = KindTotals();
    for (ThreadCells* cells : threads_) {
      Cell& c = cells->cells[k];
      c.count.store(0, std::memory_order_relaxed);
      c.total_us.store(0, std::memory_order_relaxed);
      c.max_us.store(0, std::memory_order_relaxed);
      c.bytes.store(0, std::memory_order_relaxed);
    }
  }
}

std::string SpanAggregate::ToString() const {
  const Snapshot snap = GetSnapshot();
  std::string out;
  auto emit = [&out, &snap](uint8_t k, const char* prefix) {
    const KindTotals& t = snap.kinds[k];
    if (t.count == 0) return;
    char buf[192];
    snprintf(buf, sizeof(buf),
             "%s%s: count=%llu total_us=%llu avg_us=%llu max_us=%llu",
             prefix, SpanKindName(static_cast<SpanKind>(k)),
             (unsigned long long)t.count, (unsigned long long)t.total_us,
             (unsigned long long)(t.total_us / t.count),
             (unsigned long long)t.max_us);
    out += buf;
    if (t.bytes > 0) {
      snprintf(buf, sizeof(buf), " bytes=%llu", (unsigned long long)t.bytes);
      out += buf;
    }
    out += '\n';
  };
  for (uint8_t k = static_cast<uint8_t>(SpanKind::kWrite);
       k <= static_cast<uint8_t>(SpanKind::kCompaction); k++) {
    emit(k, "span op ");
  }
  for (uint8_t k = static_cast<uint8_t>(SpanKind::kWalAppend);
       k < kMaxSpanKind; k++) {
    emit(k, "span phase ");
  }
  return out;
}

SpanAggregate* GlobalSpanAggregate() {
  static SpanAggregate* const aggregate = new SpanAggregate;
  return aggregate;
}

uint32_t SpanThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---------------------------------------------------------------------
// Collector

size_t SpanCollector::Push(SpanKind kind, int32_t parent, uint64_t now_us,
                           SpanSink* sink) {
  if (live_ == spans_.size()) {
    spans_.emplace_back();
    sinks_.push_back(nullptr);
  }
  sinks_[live_] = sink;
  SpanNode& node = spans_[live_];
  node.kind = kind;
  node.parent = parent;
  node.start_us = now_us;
  node.duration_us = 0;
  node.annotations.clear();  // keeps its capacity for this slot
  stack_.push_back(live_);
  return live_++;
}

size_t SpanCollector::OpenRoot(SpanKind kind, uint64_t now_us,
                               SpanSink* sink) {
  return Push(kind, -1, now_us, sink);
}

size_t SpanCollector::OpenChild(SpanKind kind, uint64_t now_us) {
  if (stack_.empty()) return kNoSpan;  // orphan (recovery etc.): no-op
  return Push(kind, static_cast<int32_t>(stack_.back()), now_us, nullptr);
}

void SpanCollector::Annotate(size_t handle, SpanTag tag, uint64_t value) {
  if (handle == kNoSpan || handle >= live_) return;
  spans_[handle].annotations.emplace_back(tag, value);
}

void SpanCollector::Close(size_t handle, uint64_t now_us) {
  if (handle == kNoSpan || handle >= live_) return;
  // Unwind to the handle: anything still open above it (a child whose
  // scope was escaped by an early return) closes at the same instant.
  while (!stack_.empty() && stack_.back() != handle) {
    SpanNode& n = spans_[stack_.back()];
    n.duration_us = now_us >= n.start_us ? now_us - n.start_us : 0;
    stack_.pop_back();
  }
  if (stack_.empty()) return;  // handle was not open; drop silently
  stack_.pop_back();

  SpanNode& closed = spans_[handle];
  closed.duration_us = now_us >= closed.start_us ? now_us - closed.start_us : 0;
  if (closed.parent != -1) return;  // child: buffered until root close

  // Root close. Every span at index >= handle belongs to this tree: the
  // thread is single-streamed, so a suspended outer tree cannot have
  // interleaved spans after this root opened. The records stay in
  // spans_ for reuse.
  const size_t n = live_ - handle;
  SpanSink* const sink = sinks_[handle];
  live_ = handle;
  GlobalSpanAggregate()->Fold(&spans_[handle], n);
  if (sink == nullptr || !sink->WantsTrees()) return;

  // tree_ is rebuilt in place.
  SizeTree(n);
  for (size_t i = 0; i < n; i++) {
    // Copy-assignment reuses the target's annotation buffer.
    SpanNode& node = tree_.spans[i];
    node = spans_[handle + i];
    if (node.parent != -1) node.parent -= static_cast<int32_t>(handle);
  }
  tree_.thread_id = SpanThreadId();
  sink->Consume(tree_);
}

void SpanCollector::SizeTree(size_t n) {
  std::vector<SpanNode>& spans = tree_.spans;
  while (spans.size() > n) {
    spare_.push_back(std::move(spans.back()));
    spans.pop_back();
  }
  while (spans.size() < n) {
    if (spare_.empty()) {
      spans.emplace_back();
    } else {
      spans.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
  }
}

SpanCollector* GetSpanCollector() {
  thread_local SpanCollector collector;
  return &collector;
}

// ---------------------------------------------------------------------
// Tracer

SpanTracer::SpanTracer(Env* env) : RecordTrace(env, kSpanFormat) {}

Status SpanTracer::Start(const std::string& path,
                         const SpanTraceOptions& options,
                         uint64_t base_ts_us) {
  return RecordTrace::Start(path, base_ts_us, [this, &options] {
    options_ = options;
    std::memset(seen_, 0, sizeof(seen_));
  });
}

void SpanTracer::Consume(const SpanTree& tree) {
  Append([this, &tree](std::string* payload) {
    const uint8_t kind = static_cast<uint8_t>(tree.root().kind);
    seen_[kind]++;
    uint8_t flags = 0;
    if (tree.root().duration_us >= options_.slow_op_threshold_us) {
      flags |= kSpanTreeSlow;
    }
    if (options_.sample_every > 0 &&
        (seen_[kind] % options_.sample_every) == 1 % options_.sample_every) {
      flags |= kSpanTreeSampled;
    }
    if (flags == 0) return false;

    PutFixed64(payload, tree.root().start_us);
    PutFixed32(payload, tree.thread_id);
    payload->push_back(static_cast<char>(flags));
    PutVarint32(payload, static_cast<uint32_t>(tree.spans.size()));
    const uint64_t root_start = tree.root().start_us;
    for (const SpanNode& n : tree.spans) {
      payload->push_back(static_cast<char>(n.kind));
      PutVarint32(payload, static_cast<uint32_t>(n.parent + 1));
      PutVarint64(payload, n.start_us - root_start);
      PutVarint64(payload, n.duration_us);
      PutVarint32(payload, static_cast<uint32_t>(n.annotations.size()));
      for (const auto& [tag, value] : n.annotations) {
        payload->push_back(static_cast<char>(tag));
        PutVarint64(payload, value);
      }
    }
    return true;
  });
}

// ---------------------------------------------------------------------
// Reader

SpanTraceReader::SpanTraceReader(Env* env) : file_(env, kSpanFormat) {}

Status SpanTraceReader::Open(const std::string& path) {
  return file_.Open(path);
}

Status SpanTraceReader::Next(SpanTree* tree, bool* eof) {
  Slice payload;
  Status s = file_.Next(&payload, eof);
  if (!s.ok() || *eof) return s;

  tree->spans.clear();
  const uint64_t root_start = DecodeFixed64(payload.data());
  tree->thread_id = DecodeFixed32(payload.data() + 8);
  tree->flags = static_cast<uint8_t>(payload[12]);
  Slice rest(payload.data() + kPayloadFixed,
             payload.size() - kPayloadFixed);
  uint32_t count = 0;
  if (!GetVarint32(&rest, &count) || count == 0 || count > (1u << 22)) {
    return Status::Corruption("bad span count");
  }
  tree->spans.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    if (rest.empty()) return Status::Corruption("truncated span");
    const uint8_t kind = static_cast<uint8_t>(rest[0]);
    rest.remove_prefix(1);
    if (!IsSpanKind(kind)) return Status::Corruption("bad span kind");
    SpanNode node;
    node.kind = static_cast<SpanKind>(kind);
    uint32_t parent_plus_1 = 0;
    uint64_t start_delta = 0;
    uint32_t nannot = 0;
    if (!GetVarint32(&rest, &parent_plus_1) ||
        !GetVarint64(&rest, &start_delta) ||
        !GetVarint64(&rest, &node.duration_us) ||
        !GetVarint32(&rest, &nannot) || nannot > 256) {
      return Status::Corruption("bad span fields");
    }
    if (parent_plus_1 > i) {
      // Parents always precede children; 0 (the root) only at index 0.
      return Status::Corruption("bad span parent");
    }
    node.parent = static_cast<int32_t>(parent_plus_1) - 1;
    node.start_us = root_start + start_delta;
    node.annotations.reserve(nannot);
    for (uint32_t a = 0; a < nannot; a++) {
      if (rest.empty()) return Status::Corruption("truncated annotation");
      const uint8_t tag = static_cast<uint8_t>(rest[0]);
      rest.remove_prefix(1);
      uint64_t value = 0;
      if (!IsSpanTag(tag) || !GetVarint64(&rest, &value)) {
        return Status::Corruption("bad span annotation");
      }
      node.annotations.emplace_back(static_cast<SpanTag>(tag), value);
    }
    tree->spans.push_back(std::move(node));
  }
  if (!rest.empty()) return Status::Corruption("trailing span bytes");
  if (tree->spans[0].parent != -1) {
    return Status::Corruption("first span is not a root");
  }
  return Status::OK();
}

}  // namespace elmo::lsm
