#include "util/record_file.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace elmo {

namespace {

constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = kMagicSize + 4 + 8;

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
  const char* payload = frame_.data() + kRecordFrameHeaderSize;
  const size_t len = frame_.size() - kRecordFrameHeaderSize;
  EncodeFixed32(&frame_[0], crc32c::Mask(crc32c::Value(payload, len)));
  EncodeFixed32(&frame_[4], static_cast<uint32_t>(len));
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
  pos_ = end_ = 0;
  Status s = env_->NewSequentialFile(path, &file_);
  if (!s.ok()) return s;
  bool eof = false;
  s = Fill(kHeaderSize, &eof);
  if (!s.ok()) return s;
  const char* header = buf_.data() + pos_;
  if (eof || memcmp(header, format_.magic, kMagicSize) != 0) {
    return Corruption("not an elmo % file");
  }
  if (DecodeFixed32(header + kMagicSize) != format_.version) {
    return Corruption("unsupported % version");
  }
  base_ts_us_ = DecodeFixed64(header + kMagicSize + 4);
  pos_ += kHeaderSize;
  return Status::OK();
}

Status RecordFileReader::Fill(size_t n, bool* clean_eof) {
  *clean_eof = false;
  if (end_ - pos_ >= n) return Status::OK();
  // Move the unread tail to the front, then read whole chunks behind it
  // (a larger read only for a record bigger than a chunk).
  const size_t unread = end_ - pos_;
  if (pos_ > 0) {
    memmove(buf_.data(), buf_.data() + pos_, unread);
    pos_ = 0;
    end_ = unread;
  }
  while (end_ < n) {
    const size_t request = std::max(kChunkSize, n - end_);
    if (buf_.size() < end_ + request) buf_.resize(end_ + request);
    char* dst = buf_.data() + end_;
    Slice chunk;
    Status s = file_->Read(request, &chunk, dst);
    if (!s.ok()) return s;
    if (chunk.empty()) {
      if (end_ == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Corruption("truncated % record");
    }
    // The file may return data in its own buffer; normalize into ours.
    if (chunk.data() != dst) memmove(dst, chunk.data(), chunk.size());
    end_ += chunk.size();
  }
  return Status::OK();
}

Status RecordFileReader::Next(Slice* payload, bool* eof) {
  *eof = false;
  if (file_ == nullptr) {
    return Status::IOError(std::string(format_.noun) + " reader not open");
  }
  Status s = Fill(kRecordFrameHeaderSize, eof);
  if (!s.ok() || *eof) return s;
  const char* frame_header = buf_.data() + pos_;
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(frame_header));
  const uint32_t len = DecodeFixed32(frame_header + 4);
  if (len < format_.min_payload || len > format_.max_payload) {
    return Corruption("bad % record length");
  }
  pos_ += kRecordFrameHeaderSize;
  bool payload_eof = false;
  s = Fill(len, &payload_eof);
  if (!s.ok()) return s;
  if (payload_eof) return Corruption("truncated % record");
  const char* data = buf_.data() + pos_;  // Fill may have moved the bytes
  if (crc32c::Value(data, len) != expected_crc) {
    return Corruption("% record checksum mismatch");
  }
  pos_ += len;
  *payload = Slice(data, len);
  return Status::OK();
}

}  // namespace elmo
