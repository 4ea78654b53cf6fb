#include "env/io_trace.h"

#include <cstring>

#include "util/coding.h"

namespace elmo {

namespace {

// op + kind + ctx + ts + offset + len + latency; fname is variable.
constexpr size_t kPayloadFixed = 1 + 1 + 1 + 8 + 8 + 8 + 8;

constexpr RecordFormat kIOTraceFormat = {"ELMOIOT1", 1, "io trace",
                                         kPayloadFixed + 1, 1u << 26};

thread_local IOContextTag tls_io_context = IOContextTag::kUnknown;
thread_local bool tls_io_metadata_hint = false;

}  // namespace

const char* IOOpName(IOOp op) {
  switch (op) {
    case IOOp::kRead:
      return "read";
    case IOOp::kWrite:
      return "write";
    case IOOp::kSync:
      return "sync";
    case IOOp::kRangeSync:
      return "range_sync";
  }
  return "unknown";
}

const char* IOFileKindName(IOFileKind kind) {
  switch (kind) {
    case IOFileKind::kUnknown:
      return "unknown";
    case IOFileKind::kWal:
      return "wal";
    case IOFileKind::kSstData:
      return "sst_data";
    case IOFileKind::kSstIndexFilter:
      return "sst_index_filter";
    case IOFileKind::kManifest:
      return "manifest";
    case IOFileKind::kInfoLog:
      return "info_log";
    case IOFileKind::kCurrent:
      return "current";
    case IOFileKind::kOther:
      return "other";
  }
  return "unknown";
}

const char* IOContextTagName(IOContextTag tag) {
  switch (tag) {
    case IOContextTag::kUnknown:
      return "unknown";
    case IOContextTag::kUserGet:
      return "user_get";
    case IOContextTag::kUserWrite:
      return "user_write";
    case IOContextTag::kFlush:
      return "flush";
    case IOContextTag::kCompaction:
      return "compaction";
    case IOContextTag::kRecovery:
      return "recovery";
  }
  return "unknown";
}

namespace {

// True if `s` is all digits (at least one). Engine data files are named
// NNNNNN.log / NNNNNN.sst (see lsm/filename.h); this layer re-derives
// the convention locally so elmo_env does not depend on elmo_lsm.
bool AllDigits(const Slice& s) {
  if (s.empty()) return false;
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

bool HasNumericSuffix(const std::string& base, const char* suffix) {
  const size_t sl = strlen(suffix);
  if (base.size() <= sl || base.compare(base.size() - sl, sl, suffix) != 0) {
    return false;
  }
  return AllDigits(Slice(base.data(), base.size() - sl));
}

}  // namespace

IOFileKind ClassifyIOFileKind(const std::string& fname, bool hint_metadata) {
  size_t slash = fname.find_last_of('/');
  std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (base == "CURRENT") return IOFileKind::kCurrent;
  if (base == "LOG") return IOFileKind::kInfoLog;
  if (base.rfind("MANIFEST-", 0) == 0) return IOFileKind::kManifest;
  if (HasNumericSuffix(base, ".log")) return IOFileKind::kWal;
  if (HasNumericSuffix(base, ".sst")) {
    return WithMetadataHint(IOFileKind::kSstData, hint_metadata);
  }
  return IOFileKind::kOther;
}

IOContextTag CurrentIOContext() { return tls_io_context; }

bool CurrentIOMetadataHint() { return tls_io_metadata_hint; }

IOContextScope::IOContextScope(IOContextTag tag) : saved_(tls_io_context) {
  tls_io_context = tag;
}

IOContextScope::~IOContextScope() { tls_io_context = saved_; }

IOMetadataHintScope::IOMetadataHintScope() : saved_(tls_io_metadata_hint) {
  tls_io_metadata_hint = true;
}

IOMetadataHintScope::~IOMetadataHintScope() { tls_io_metadata_hint = saved_; }

IOTracer::IOTracer(Env* env) : RecordTrace(env, kIOTraceFormat) {}

void IOTracer::AddRecord(IOOp op, IOFileKind kind, IOContextTag context,
                         uint64_t ts_us, uint64_t offset, uint64_t len,
                         uint64_t latency_us, const Slice& fname) {
  Append([&](std::string* payload) {
    payload->push_back(static_cast<char>(op));
    payload->push_back(static_cast<char>(kind));
    payload->push_back(static_cast<char>(context));
    PutFixed64(payload, ts_us);
    PutFixed64(payload, offset);
    PutFixed64(payload, len);
    PutFixed64(payload, latency_us);
    PutVarint32(payload, static_cast<uint32_t>(fname.size()));
    payload->append(fname.data(), fname.size());
    return true;
  });
}

IOTraceReader::IOTraceReader(Env* env) : file_(env, kIOTraceFormat) {}

Status IOTraceReader::Open(const std::string& path) {
  return file_.Open(path);
}

Status IOTraceReader::Next(IOTraceRecord* rec, bool* eof) {
  Slice payload;
  Status s = file_.Next(&payload, eof);
  if (!s.ok() || *eof) return s;

  const uint8_t op = static_cast<uint8_t>(payload[0]);
  if (op < static_cast<uint8_t>(IOOp::kRead) ||
      op > static_cast<uint8_t>(IOOp::kRangeSync)) {
    return Status::Corruption("bad io trace op");
  }
  const uint8_t kind = static_cast<uint8_t>(payload[1]);
  if (kind > static_cast<uint8_t>(IOFileKind::kOther)) {
    return Status::Corruption("bad io trace file kind");
  }
  const uint8_t ctx = static_cast<uint8_t>(payload[2]);
  if (ctx > static_cast<uint8_t>(IOContextTag::kRecovery)) {
    return Status::Corruption("bad io trace context");
  }
  rec->op = static_cast<IOOp>(op);
  rec->kind = static_cast<IOFileKind>(kind);
  rec->context = static_cast<IOContextTag>(ctx);
  rec->ts_us = DecodeFixed64(payload.data() + 3);
  rec->offset = DecodeFixed64(payload.data() + 11);
  rec->len = DecodeFixed64(payload.data() + 19);
  rec->latency_us = DecodeFixed64(payload.data() + 27);
  Slice rest(payload.data() + kPayloadFixed, payload.size() - kPayloadFixed);
  uint32_t fname_len = 0;
  if (!GetVarint32(&rest, &fname_len) || rest.size() != fname_len) {
    return Status::Corruption("bad io trace file name length");
  }
  rec->fname.assign(rest.data(), fname_len);
  return Status::OK();
}

}  // namespace elmo
