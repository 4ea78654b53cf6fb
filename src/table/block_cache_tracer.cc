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

BlockCacheTracer::BlockCacheTracer(Env* env)
    : env_(env), file_(env, kBctFormat) {}

BlockCacheTracer::~BlockCacheTracer() { Stop(nullptr); }

Status BlockCacheTracer::Start(const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  if (file_.is_open()) return Status::Busy("block cache trace already active");
  Status s = file_.Open(path, env_->NowMicros());
  if (!s.ok()) return s;
  records_ = 0;
  enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

Status BlockCacheTracer::Stop(uint64_t* records) {
  std::lock_guard<std::mutex> l(mu_);
  if (!file_.is_open()) {
    return Status::InvalidArgument("no block cache trace");
  }
  enabled_.store(false, std::memory_order_release);
  if (records != nullptr) *records = records_;
  return file_.Close();
}

void BlockCacheTracer::Record(TraceBlockType type, bool hit, bool fill,
                              int level, uint64_t file_number, uint64_t offset,
                              uint64_t charge) {
  if (!active()) return;
  if (level < -1 || level > 127) level = -1;

  std::string payload;
  payload.reserve(kPayloadSize);
  PutFixed64(&payload, env_->NowMicros());
  payload.push_back(static_cast<char>(type));
  payload.push_back(hit ? 1 : 0);
  payload.push_back(fill ? 1 : 0);
  payload.push_back(static_cast<char>(static_cast<int8_t>(level)));
  PutFixed64(&payload, file_number);
  PutFixed64(&payload, offset);
  PutFixed64(&payload, charge);

  std::lock_guard<std::mutex> l(mu_);
  // A record that raced with Stop() finds the writer closed and is
  // dropped, as is one whose append fails.
  if (file_.Append(Slice(payload)).ok()) records_++;
}

BlockCacheTraceReader::BlockCacheTraceReader(Env* env)
    : file_(env, kBctFormat) {}

Status BlockCacheTraceReader::Open(const std::string& path) {
  return file_.Open(path);
}

Status BlockCacheTraceReader::Next(BlockCacheAccessRecord* rec, bool* eof) {
  std::string payload;
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
