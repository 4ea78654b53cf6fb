#include "lsm/trace.h"

#include "util/coding.h"

namespace elmo::lsm {

namespace {

// fixed64 ts + fixed32 thread + op byte; key/value_size are variable.
constexpr size_t kPayloadFixed = 1 + 8 + 4;

constexpr RecordFormat kTraceFormat = {"ELMOTRC1", 1, "trace",
                                       kPayloadFixed + 2, 1u << 26};

}  // namespace

TraceWriter::TraceWriter(Env* env) : RecordTrace(env, kTraceFormat) {}

void TraceWriter::AddRecord(TraceOp op, uint64_t ts_us, uint32_t thread_id,
                            const Slice& key, uint32_t value_size) {
  Append([&](std::string* payload) {
    payload->push_back(static_cast<char>(op));
    PutFixed64(payload, ts_us);
    PutFixed32(payload, thread_id);
    PutVarint32(payload, static_cast<uint32_t>(key.size()));
    payload->append(key.data(), key.size());
    PutVarint32(payload, value_size);
    return true;
  });
}

TraceReader::TraceReader(Env* env) : file_(env, kTraceFormat) {}

Status TraceReader::Open(const std::string& path) { return file_.Open(path); }

Status TraceReader::Next(TraceRecord* rec, bool* eof) {
  Slice payload;
  Status s = file_.Next(&payload, eof);
  if (!s.ok() || *eof) return s;

  const uint8_t op = static_cast<uint8_t>(payload[0]);
  if (op < static_cast<uint8_t>(TraceOp::kPut) ||
      op > static_cast<uint8_t>(TraceOp::kGet)) {
    return Status::Corruption("bad trace op");
  }
  rec->op = static_cast<TraceOp>(op);
  rec->ts_us = DecodeFixed64(payload.data() + 1);
  rec->thread_id = DecodeFixed32(payload.data() + 9);
  Slice rest(payload.data() + kPayloadFixed, payload.size() - kPayloadFixed);
  uint32_t key_len = 0;
  if (!GetVarint32(&rest, &key_len) || rest.size() < key_len) {
    return Status::Corruption("bad trace key length");
  }
  rec->key.assign(rest.data(), key_len);
  rest.remove_prefix(key_len);
  if (!GetVarint32(&rest, &rec->value_size) || !rest.empty()) {
    return Status::Corruption("bad trace value size");
  }
  return Status::OK();
}

}  // namespace elmo::lsm
