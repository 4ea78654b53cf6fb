#include "util/record_file.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace elmo {

namespace {

constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = kMagicSize + 4 + 8;
constexpr size_t kFrameHeaderSize = 4 + 4;  // masked crc + payload length

}  // namespace

RecordTrace::RecordTrace(Env* env, const RecordFormat& format)
    : env_(env), format_(format) {}

RecordTrace::~RecordTrace() { Stop(nullptr); }

Status RecordTrace::Start(const std::string& path, uint64_t base_ts_us,
                          const std::function<void()>& on_start) {
  std::lock_guard<std::mutex> l(mu_);
  if (file_ != nullptr) {
    return Status::Busy(std::string(format_.noun) + " already active");
  }
  Status s = env_->NewWritableFile(path, &file_);
  if (!s.ok()) return s;
  std::string header(format_.magic, kMagicSize);
  PutFixed32(&header, format_.version);
  PutFixed64(&header, base_ts_us);
  s = file_->Append(Slice(header));
  if (!s.ok()) {
    file_.reset();
    return s;
  }
  records_ = 0;
  if (on_start) on_start();
  active_.store(true, std::memory_order_release);
  return Status::OK();
}

Status RecordTrace::Stop(uint64_t* records) {
  std::lock_guard<std::mutex> l(mu_);
  if (file_ == nullptr) {
    return Status::InvalidArgument(std::string("no ") + format_.noun +
                                   " active");
  }
  active_.store(false, std::memory_order_release);
  if (records != nullptr) *records = records_;
  Status s = file_->Flush();
  if (s.ok()) s = file_->Sync();
  Status c = file_->Close();
  if (s.ok()) s = c;
  file_.reset();
  return s;
}

uint64_t RecordTrace::records() const {
  std::lock_guard<std::mutex> l(mu_);
  return records_;
}

void RecordTrace::AppendLocked() {
  frame_.clear();
  PutFixed32(&frame_,
             crc32c::Mask(crc32c::Value(payload_.data(), payload_.size())));
  PutFixed32(&frame_, static_cast<uint32_t>(payload_.size()));
  frame_.append(payload_);
  if (file_->Append(Slice(frame_)).ok()) records_++;
}

RecordFileReader::RecordFileReader(Env* env, const RecordFormat& format)
    : env_(env), format_(format) {}

Status RecordFileReader::Corruption(const char* what) const {
  // `what` is a pattern with one "%" standing for the format's noun.
  std::string msg(what);
  msg.replace(msg.find('%'), 1, format_.noun);
  return Status::Corruption(msg);
}

Status RecordFileReader::Open(const std::string& path) {
  Status s = env_->NewSequentialFile(path, &file_);
  if (!s.ok()) return s;
  std::string header;
  bool eof = false;
  s = ReadFully(kHeaderSize, &header, &eof);
  if (!s.ok()) return s;
  if (eof || memcmp(header.data(), format_.magic, kMagicSize) != 0) {
    return Corruption("not an elmo % file");
  }
  if (DecodeFixed32(header.data() + kMagicSize) != format_.version) {
    return Corruption("unsupported % version");
  }
  base_ts_us_ = DecodeFixed64(header.data() + kMagicSize + 4);
  return Status::OK();
}

Status RecordFileReader::ReadFully(size_t n, std::string* out,
                                   bool* clean_eof) {
  out->assign(n, '\0');
  *clean_eof = false;
  size_t got = 0;
  while (got < n) {
    Slice chunk;
    Status s = file_->Read(n - got, &chunk, &(*out)[got]);
    if (!s.ok()) return s;
    if (chunk.empty()) {
      if (got == 0) {
        out->clear();
        *clean_eof = true;
        return Status::OK();
      }
      return Corruption("truncated % record");
    }
    // The file may return data in its own buffer; normalize into ours.
    if (chunk.data() != out->data() + got) {
      memcpy(&(*out)[got], chunk.data(), chunk.size());
    }
    got += chunk.size();
  }
  return Status::OK();
}

Status RecordFileReader::Next(std::string* payload, bool* eof) {
  *eof = false;
  if (file_ == nullptr) {
    return Status::IOError(std::string(format_.noun) + " reader not open");
  }
  std::string frame_header;
  Status s = ReadFully(kFrameHeaderSize, &frame_header, eof);
  if (!s.ok() || *eof) return s;
  const uint32_t expected_crc =
      crc32c::Unmask(DecodeFixed32(frame_header.data()));
  const uint32_t len = DecodeFixed32(frame_header.data() + 4);
  if (len < format_.min_payload || len > format_.max_payload) {
    return Corruption("bad % record length");
  }
  bool payload_eof = false;
  s = ReadFully(len, payload, &payload_eof);
  if (!s.ok()) return s;
  if (payload_eof) return Corruption("truncated % record");
  if (crc32c::Value(payload->data(), payload->size()) != expected_crc) {
    return Corruption("% record checksum mismatch");
  }
  return Status::OK();
}

}  // namespace elmo
