#include "lsm/db_iter.h"

#include <cassert>
#include <string>

namespace elmo::lsm {

namespace {

class DBIter : public Iterator {
 public:
  DBIter(const Comparator* user_comparator,
         std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence,
         Env* env, SpanSink* span_sink)
      : user_comparator_(user_comparator),
        iter_(std::move(internal_iter)),
        sequence_(sequence),
        env_(env),
        span_sink_(span_sink),
        direction_(kForward),
        valid_(false) {}

  bool Valid() const override { return valid_; }

  Slice key() const override {
    assert(valid_);
    return (direction_ == kForward) ? ExtractUserKey(iter_->key())
                                    : Slice(saved_key_);
  }

  Slice value() const override {
    assert(valid_);
    return (direction_ == kForward) ? iter_->value() : Slice(saved_value_);
  }

  Status status() const override {
    if (status_.ok()) return iter_->status();
    return status_;
  }

  void Next() override;
  void Prev() override;
  void Seek(const Slice& target) override;
  void SeekToFirst() override;
  void SeekToLast() override;

 private:
  enum Direction { kForward, kReverse };

  // Per-call accounting around each public Seek/Next/Prev: opens a
  // kIterSeek/kIterNext root span when an Env was supplied and annotates
  // it with the keys skipped and bytes surfaced on the way out.
  class OpScope {
   public:
    OpScope(DBIter* it, SpanKind kind)
        : it_(it),
          skipped_before_(it->skipped_),
          handle_(it->env_ != nullptr
                      ? GetSpanCollector()->OpenRoot(
                            kind, it->env_->NowMicros(), it->span_sink_)
                      : SpanCollector::kNoSpan) {}
    ~OpScope() {
      if (handle_ == SpanCollector::kNoSpan) return;
      SpanCollector* c = GetSpanCollector();
      const uint64_t skipped = it_->skipped_ - skipped_before_;
      if (skipped > 0) c->Annotate(handle_, SpanTag::kKeysSkipped, skipped);
      const uint64_t bytes =
          it_->valid_ ? it_->key().size() + it_->value().size() : 0;
      if (bytes > 0) c->Annotate(handle_, SpanTag::kBytes, bytes);
      c->Annotate(handle_, SpanTag::kHit, it_->valid_ ? 1 : 0);
      c->Close(handle_, it_->env_->NowMicros());
    }

   private:
    DBIter* const it_;
    const uint64_t skipped_before_;
    const size_t handle_;
  };

  void FindNextUserEntry(bool skipping, std::string* skip);
  void FindPrevUserEntry();
  bool ParseKey(ParsedInternalKey* key);

  void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  void ClearSavedValue() {
    saved_value_.clear();
    saved_value_.shrink_to_fit();
  }

  const Comparator* const user_comparator_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber const sequence_;
  Env* const env_;  // null: no spans
  SpanSink* const span_sink_;
  uint64_t skipped_ = 0;  // tombstones + shadowed versions stepped over

  Status status_;
  std::string saved_key_;    // current key when direction_ == kReverse
  std::string saved_value_;  // current value when direction_ == kReverse
  Direction direction_;
  bool valid_;
};

bool DBIter::ParseKey(ParsedInternalKey* ikey) {
  if (!ParseInternalKey(iter_->key(), ikey)) {
    status_ = Status::Corruption("corrupted internal key in DBIter");
    return false;
  }
  return true;
}

void DBIter::Next() {
  assert(valid_);
  OpScope op(this, SpanKind::kIterNext);

  if (direction_ == kReverse) {
    direction_ = kForward;
    // iter_ is before the entries for key(): advance into them, then
    // past them.
    if (!iter_->Valid()) {
      iter_->SeekToFirst();
    } else {
      iter_->Next();
    }
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
  } else {
    // Remember the current key so we can skip its other versions.
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
    iter_->Next();
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
  }

  FindNextUserEntry(true, &saved_key_);
}

void DBIter::FindNextUserEntry(bool skipping, std::string* skip) {
  // Loop until a visible, non-deleted user entry.
  assert(iter_->Valid());
  assert(direction_ == kForward);
  do {
    ParsedInternalKey ikey;
    if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
      switch (ikey.type) {
        case kTypeDeletion:
          // Hide all later (older) versions of this key.
          SaveKey(ikey.user_key, skip);
          skipping = true;
          skipped_++;
          break;
        case kTypeValue:
          if (skipping &&
              user_comparator_->Compare(ikey.user_key, Slice(*skip)) <= 0) {
            // Shadowed by a newer version or a deletion.
            skipped_++;
          } else {
            valid_ = true;
            saved_key_.clear();
            return;
          }
          break;
      }
    }
    iter_->Next();
  } while (iter_->Valid());
  saved_key_.clear();
  valid_ = false;
}

void DBIter::Prev() {
  assert(valid_);
  OpScope op(this, SpanKind::kIterNext);

  if (direction_ == kForward) {
    // iter_ points at the current entry. Back up until before all
    // entries for the current user key.
    assert(iter_->Valid());
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
    while (true) {
      iter_->Prev();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        ClearSavedValue();
        return;
      }
      if (user_comparator_->Compare(ExtractUserKey(iter_->key()),
                                    Slice(saved_key_)) < 0) {
        break;
      }
    }
    direction_ = kReverse;
  }

  FindPrevUserEntry();
}

void DBIter::FindPrevUserEntry() {
  assert(direction_ == kReverse);

  ValueType value_type = kTypeDeletion;
  if (iter_->Valid()) {
    do {
      ParsedInternalKey ikey;
      if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
        if ((value_type != kTypeDeletion) &&
            user_comparator_->Compare(ikey.user_key, Slice(saved_key_)) < 0) {
          // We found a non-deleted value for the key we accumulated.
          break;
        }
        value_type = ikey.type;
        if (value_type == kTypeDeletion) {
          skipped_++;
          saved_key_.clear();
          ClearSavedValue();
        } else {
          Slice raw_value = iter_->value();
          SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
          saved_value_.assign(raw_value.data(), raw_value.size());
        }
      }
      iter_->Prev();
    } while (iter_->Valid());
  }

  if (value_type == kTypeDeletion) {
    // End of iteration.
    valid_ = false;
    saved_key_.clear();
    ClearSavedValue();
    direction_ = kForward;
  } else {
    valid_ = true;
  }
}

void DBIter::Seek(const Slice& target) {
  OpScope op(this, SpanKind::kIterSeek);
  direction_ = kForward;
  ClearSavedValue();
  saved_key_.clear();
  AppendInternalKey(&saved_key_,
                    ParsedInternalKey(target, sequence_, kValueTypeForSeek));
  iter_->Seek(Slice(saved_key_));
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToFirst() {
  OpScope op(this, SpanKind::kIterSeek);
  direction_ = kForward;
  ClearSavedValue();
  iter_->SeekToFirst();
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToLast() {
  OpScope op(this, SpanKind::kIterSeek);
  direction_ = kReverse;
  ClearSavedValue();
  iter_->SeekToLast();
  FindPrevUserEntry();
}

}  // namespace

std::unique_ptr<Iterator> NewDBIterator(
    const Comparator* user_comparator,
    std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence,
    Env* env, SpanSink* span_sink) {
  return std::make_unique<DBIter>(user_comparator, std::move(internal_iter),
                                  sequence, env, span_sink);
}

}  // namespace elmo::lsm
