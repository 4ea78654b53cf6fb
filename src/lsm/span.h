// Request-scoped span tracing: every foreground op (Get/Write/iterator
// Seek/Next) and background job (flush, compaction) opens a root span;
// the engine opens child spans around its interesting phases (WAL
// append/sync, memtable insert/probe, SST probe, stall waits, table
// build, manifest apply) and attaches typed annotations (bytes, files
// probed, cache hit/miss deltas, stall reason, keys skipped). A Get's
// sst_probe cache_hit/cache_miss are the calling thread's own block-cache
// lookups (table/table.h ThreadTableCacheCounts), so concurrent Gets and
// compactions on other threads do not leak into them.
//
// Collection is always on, but an op pays only for what is delivered.
// Every root close folds the root's spans into the process-wide
// SpanAggregate (the "elmo.perf" property and the StatsSampler span
// columns), which keeps one set of cells per thread: each thread is the
// only writer of its cells, so a fold is plain loads and stores with no
// locked instruction, and only a snapshot or reset takes a lock. A
// SpanTree is assembled only when the root's sink wants one
// (SpanSink::WantsTrees; a SpanTracer does while a trace is active).
// Collection does not allocate once warmed up: each thread's collector
// keeps its span records and the tree it delivers, and reuses their
// storage, so only a tree larger (or more annotated) than any before it
// allocates. When a span trace is active (DB::StartSpanTrace), completed
// root trees that are slow (root duration >= slow_op_threshold_us) or
// deterministically sampled (every sample_every-th op of a kind) are
// additionally serialized to a CRC-framed binary file — the slow-op log
// that bench_kit/span_analyzer decomposes into p50/p99/p999 component
// shares and exports as Chrome trace-event / Perfetto JSON.
//
// Clock reads: a span edge that meets another (the op's own start, a
// phase closing where the next opens, the op's end measurement) takes
// the timestamp the caller already read (the SpanScope overloads taking
// `now_us`). A caller shares a read only where nothing between the two
// edges can charge the SimEnv clock, so virtual-time spans stay exact.
//
// File layout: util/record_file.h framing, magic "ELMOSPN1", version 1.
//   payload: fixed64 root_start_us | fixed32 thread_id | flags (1 byte)
//            | varint32 span_count | span_count * span
//   span:    kind (1 byte) | varint32 parent_plus_1
//            | varint64 start_delta_us | varint64 duration_us
//            | varint32 n_annotations | n * (tag byte | varint64 value)
//
// Threading: the span stack is thread-local (one op per thread at a
// time). Under SimEnv, background jobs run inline inside the foreground
// write — a new root opening while another tree is suspended starts an
// independent tree; on root close, exactly the spans opened since that
// root are extracted (the outer tree cannot interleave on the same
// thread), so the flush/compaction tree is delivered separately and the
// foreground tree keeps only its own spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"
#include "util/record_file.h"
#include "util/status.h"

namespace elmo::lsm {

enum class SpanKind : uint8_t {
  // Root kinds (one per op / background job).
  kWrite = 1,
  kGet = 2,
  kIterSeek = 3,
  kIterNext = 4,
  kFlush = 5,
  kCompaction = 6,
  // Child kinds (phases inside a root).
  kWalAppend = 32,
  kWalSync = 33,
  kMemtableInsert = 34,
  kMemtableProbe = 35,
  kSstProbe = 36,
  kStallWait = 37,
  kTableBuild = 38,
  kManifestApply = 39,
};

inline constexpr uint8_t kMaxSpanKind = 40;  // one past the last kind

bool IsSpanKind(uint8_t v);
inline bool IsRootSpanKind(SpanKind k) {
  return static_cast<uint8_t>(k) < static_cast<uint8_t>(SpanKind::kWalAppend);
}
const char* SpanKindName(SpanKind k);

enum class SpanTag : uint8_t {
  kBytes = 1,        // payload bytes the span moved/returned
  kEntries = 2,      // batch entries / table entries
  kFilesProbed = 3,  // SST files consulted
  kLevel = 4,        // LSM level (compaction input, SST hit level)
  kStallReason = 5,  // StallReason enum value
  kKeysSkipped = 6,  // tombstones/shadowed versions stepped over
  kCacheHit = 7,     // block-cache hit delta during the span
  kCacheMiss = 8,    // block-cache miss delta during the span
  kHit = 9,          // 1 when the lookup found a value
  kInputBytes = 10,  // compaction input bytes
};

inline constexpr uint8_t kMaxSpanTag = 11;  // one past the last tag

bool IsSpanTag(uint8_t v);
const char* SpanTagName(SpanTag t);

// One span of a completed tree. `parent` is an index into the tree's
// span vector; -1 for the root (always index 0).
struct SpanNode {
  SpanKind kind = SpanKind::kWrite;
  int32_t parent = -1;
  uint64_t start_us = 0;  // absolute engine-clock micros
  uint64_t duration_us = 0;
  std::vector<std::pair<SpanTag, uint64_t>> annotations;
};

// Flags on a serialized tree.
inline constexpr uint8_t kSpanTreeSlow = 1;     // root >= slow threshold
inline constexpr uint8_t kSpanTreeSampled = 2;  // deterministic 1-in-N

struct SpanTree {
  uint32_t thread_id = 0;
  uint8_t flags = 0;
  std::vector<SpanNode> spans;  // spans[0] is the root

  const SpanNode& root() const { return spans[0]; }
  // Sum of the direct children's durations of span `i`.
  uint64_t ChildrenDuration(size_t i) const;
  // duration - sum(direct children): the time span `i` spent itself.
  uint64_t SelfDuration(size_t i) const;
};

// Receives completed root trees (flags not yet set). Implemented by
// SpanTracer; tests plug in their own sink.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  // Asked on each root close: false skips assembling the tree (the
  // spans still reach the aggregate).
  virtual bool WantsTrees() const { return true; }
  virtual void Consume(const SpanTree& tree) = 0;
};

// Process-wide per-kind totals, folded on every root close (tracer
// active or not). Powers GetProperty("elmo.perf") and the sampler's
// span columns. All counters are cumulative since process start (or
// the last Reset). Each thread folds into its own cells; a snapshot sums
// them, and an exiting thread's totals move into a retired cell.
class SpanAggregate {
 public:
  struct KindTotals {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t max_us = 0;
    uint64_t bytes = 0;  // sum of kBytes annotations
  };
  struct Snapshot {
    KindTotals kinds[kMaxSpanKind] = {};
    const KindTotals& Get(SpanKind k) const {
      return kinds[static_cast<uint8_t>(k)];
    }
  };

  // Adds `n` spans to the calling thread's cells.
  void Fold(const SpanNode* spans, size_t n);
  Snapshot GetSnapshot() const;

  // Zero every cell. Harnesses that fingerprint their output (e.g. the
  // stress driver's deterministic report) call this at campaign start;
  // any live DB's sampler baseline becomes stale, and a fold running
  // concurrently on another thread may survive it, so reset only when
  // no other DB is open in the process.
  void Reset();

  // Multi-line "span <name>: count=N total_us=N avg_us=N max_us=N
  // [bytes=N]" rendering; roots first, then child phases. Zero-count
  // kinds are omitted.
  std::string ToString() const;

 private:
  friend SpanAggregate* GlobalSpanAggregate();
  SpanAggregate() = default;

  // One thread's totals. Only that thread stores to them (relaxed), so
  // other threads may read them at any time.
  struct Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> total_us{0};
    std::atomic<uint64_t> max_us{0};
    std::atomic<uint64_t> bytes{0};
  };
  struct ThreadCells {
    Cell cells[kMaxSpanKind];
  };

  static void AddCell(const Cell& c, KindTotals* t);

  // The calling thread's cells, registered on first use.
  ThreadCells* LocalCells();
  // Thread exit: moves `cells` into retired_ and frees them.
  void Retire(ThreadCells* cells);

  mutable std::mutex mu_;
  std::vector<ThreadCells*> threads_;  // live threads' cells; guarded by mu_
  KindTotals retired_[kMaxSpanKind];   // exited threads; guarded by mu_
};

// The process-wide aggregate every collector folds into. Never null;
// never destroyed, so threads outliving static destruction can retire.
SpanAggregate* GlobalSpanAggregate();

// Small stable per-thread ordinal (1, 2, ...) used as the trace/track
// thread id — deterministic under single-threaded SimEnv runs, unlike
// std::hash of std::thread::id.
uint32_t SpanThreadId();

// Thread-local stack of open spans. Handles are indices into an
// internal vector; kNoSpan marks a no-op handle (orphan child with no
// open root). Roots may nest (inline background work): the inner tree
// is extracted and delivered on its own close. Spans reach the
// aggregate only at their root's close, never at a child's, so an op
// still open is invisible to a sampler tick it runs. The delivered
// SpanTree is the collector's own and is rebuilt by the next root close
// whose sink wants a tree, so a sink copies what it keeps and opens no
// span while consuming.
class SpanCollector {
 public:
  static constexpr size_t kNoSpan = static_cast<size_t>(-1);

  // Opens a root span. `sink` (may be null) receives the completed tree
  // on close, after the fold into the global aggregate, if it then
  // WantsTrees().
  size_t OpenRoot(SpanKind kind, uint64_t now_us, SpanSink* sink);
  // Opens a child of the innermost open span; kNoSpan when none is open.
  size_t OpenChild(SpanKind kind, uint64_t now_us);
  void Annotate(size_t handle, SpanTag tag, uint64_t value);
  void Close(size_t handle, uint64_t now_us);

  size_t open_depth() const { return stack_.size(); }

 private:
  size_t Push(SpanKind kind, int32_t parent, uint64_t now_us,
              SpanSink* sink);
  // Resizes tree_.spans to n nodes without freeing any: surplus nodes
  // wait in spare_ (annotation buffers intact) for a larger tree.
  void SizeTree(size_t n);

  // spans_[0, live_) are open or buffered spans (node.parent: absolute
  // index into spans_; -1 = root), sinks_[i] the sink of root i. Records
  // past live_ are kept, with their annotation capacity, for the next
  // spans opened.
  std::vector<SpanNode> spans_;
  std::vector<SpanSink*> sinks_;
  size_t live_ = 0;
  std::vector<size_t> stack_;
  SpanTree tree_;  // the tree being delivered, rebuilt in place
  std::vector<SpanNode> spare_;
};

// The calling thread's collector. Never null.
SpanCollector* GetSpanCollector();

// RAII wrapper: opens on construction, closes (and timestamps) on
// destruction. Non-copyable, stack-scoped.
class SpanScope {
 public:
  // Root span; `sink` may be null (aggregate-only collection).
  SpanScope(Env* env, SpanKind kind, SpanSink* sink)
      : SpanScope(env, kind, sink, env->NowMicros()) {}
  // Root span opening at `now_us`, a clock read the caller already has.
  SpanScope(Env* env, SpanKind kind, SpanSink* sink, uint64_t now_us)
      : env_(env),
        handle_(GetSpanCollector()->OpenRoot(kind, now_us, sink)) {}
  // Child span; no-op when no root is open on this thread.
  SpanScope(Env* env, SpanKind kind)
      : SpanScope(env, kind, env->NowMicros()) {}
  SpanScope(Env* env, SpanKind kind, uint64_t now_us)
      : env_(env), handle_(GetSpanCollector()->OpenChild(kind, now_us)) {}
  ~SpanScope() { Close(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Annotate(SpanTag tag, uint64_t value) {
    GetSpanCollector()->Annotate(handle_, tag, value);
  }
  void Close() {
    if (handle_ != SpanCollector::kNoSpan) Close(env_->NowMicros());
  }
  // Closes at `now_us`, a clock read the caller already has.
  void Close(uint64_t now_us) {
    if (handle_ == SpanCollector::kNoSpan) return;
    GetSpanCollector()->Close(handle_, now_us);
    handle_ = SpanCollector::kNoSpan;
  }

 private:
  Env* const env_;
  size_t handle_;
};

struct SpanTraceOptions {
  // Root trees with duration >= this are serialized ("slow"); 0 captures
  // every op.
  uint64_t slow_op_threshold_us = 10000;
  // Additionally serialize every Nth tree of each root kind (the
  // deterministic stand-in for reservoir sampling: same seed => same
  // capture set, byte-identical under SimEnv). 0 disables sampling.
  uint64_t sample_every = 256;
};

// Serializes selected trees to the CRC-framed span trace. One per DB;
// Start/Stop toggle it, and Stop/records() count the trees written
// (RecordTrace). While a trace is active it wants trees, so Consume is
// called on every root close and filters by the options above.
class SpanTracer : public SpanSink, public RecordTrace {
 public:
  explicit SpanTracer(Env* env);

  Status Start(const std::string& path, const SpanTraceOptions& options,
               uint64_t base_ts_us);

  bool WantsTrees() const override { return active(); }
  void Consume(const SpanTree& tree) override;

 private:
  // Sampling state of the active trace, reset by Start; guarded by the
  // trace's mutex (read and written only inside Start and Append).
  SpanTraceOptions options_;
  uint64_t seen_[kMaxSpanKind] = {};  // per-root-kind ops observed
};

// Reads a span trace back tree by tree.
class SpanTraceReader {
 public:
  explicit SpanTraceReader(Env* env);

  SpanTraceReader(const SpanTraceReader&) = delete;
  SpanTraceReader& operator=(const SpanTraceReader&) = delete;

  Status Open(const std::string& path);
  // Sets *eof=true (with OK status) at a clean end of file; returns
  // Corruption on a bad CRC, truncated record, or malformed payload.
  Status Next(SpanTree* tree, bool* eof);

  uint64_t base_ts_us() const { return file_.base_ts_us(); }

 private:
  RecordFileReader file_;
};

}  // namespace elmo::lsm
