#include "table/block_cache_tracer.h"

#include "util/coding.h"

namespace elmo {

namespace {

// ts + type + hit + fill + level + file_number + offset + charge.
constexpr size_t kPayloadSize = 8 + 1 + 1 + 1 + 1 + 8 + 8 + 8;

constexpr RecordFormat kBctFormat = {"ELMOBCT1", 1, "block cache trace",
                                     kPayloadSize, kPayloadSize};

}  // namespace

const char* TraceBlockTypeName(TraceBlockType type) {
  switch (type) {
    case TraceBlockType::kData:
      return "data";
    case TraceBlockType::kIndex:
      return "index";
    case TraceBlockType::kFilter:
      return "filter";
  }
  return "unknown";
}

BlockCacheTracer::BlockCacheTracer(Env* env) : RecordTrace(env, kBctFormat) {}

void BlockCacheTracer::Record(TraceBlockType type, bool hit, bool fill,
                              int level, uint64_t file_number, uint64_t offset,
                              uint64_t charge) {
  if (level < -1 || level > 127) level = -1;
  Append([&](std::string* payload) {
    PutFixed64(payload, env()->NowMicros());
    payload->push_back(static_cast<char>(type));
    payload->push_back(hit ? 1 : 0);
    payload->push_back(fill ? 1 : 0);
    payload->push_back(static_cast<char>(static_cast<int8_t>(level)));
    PutFixed64(payload, file_number);
    PutFixed64(payload, offset);
    PutFixed64(payload, charge);
    return true;
  });
}

BlockCacheTraceReader::BlockCacheTraceReader(Env* env)
    : file_(env, kBctFormat) {}

Status BlockCacheTraceReader::Open(const std::string& path) {
  return file_.Open(path);
}

Status BlockCacheTraceReader::Next(BlockCacheAccessRecord* rec, bool* eof) {
  Slice payload;
  Status s = file_.Next(&payload, eof);
  if (!s.ok() || *eof) return s;

  rec->ts_us = DecodeFixed64(payload.data());
  const uint8_t type = static_cast<uint8_t>(payload[8]);
  if (type < static_cast<uint8_t>(TraceBlockType::kData) ||
      type > static_cast<uint8_t>(TraceBlockType::kFilter)) {
    return Status::Corruption("bad block cache trace block type");
  }
  rec->type = static_cast<TraceBlockType>(type);
  rec->hit = payload[9] != 0;
  rec->fill = payload[10] != 0;
  rec->level = static_cast<int8_t>(payload[11]);
  rec->file_number = DecodeFixed64(payload.data() + 12);
  rec->offset = DecodeFixed64(payload.data() + 20);
  rec->charge = DecodeFixed64(payload.data() + 28);
  return Status::OK();
}

}  // namespace elmo
