#include "lsm/merger.h"

#include <cassert>

namespace elmo::lsm {

namespace {

// A child iterator plus its Valid()/key() as of its last move (leveldb's
// IteratorWrapper): the merge compares cached slices instead of making
// two virtual calls per child per entry. key() stays live until the
// child moves, and every move goes through Update().
struct MergeChild {
  std::unique_ptr<Iterator> iter;
  bool valid = false;
  Slice key;

  void Update() {
    valid = iter->Valid();
    if (valid) key = iter->key();
  }
};

// Linear-scan merge (leveldb's approach): child counts are small — a
// handful of memtables plus one iterator per L0 file or sorted run.
class MergingIterator : public Iterator {
 public:
  MergingIterator(const Comparator* comparator,
                  std::vector<std::unique_ptr<Iterator>> children)
      : comparator_(comparator),
        children_(children.size()),
        current_(nullptr),
        direction_(kForward) {
    for (size_t i = 0; i < children.size(); i++) {
      children_[i].iter = std::move(children[i]);
    }
  }

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) {
      child.iter->SeekToFirst();
      child.Update();
    }
    FindSmallest();
    direction_ = kForward;
  }

  void SeekToLast() override {
    for (auto& child : children_) {
      child.iter->SeekToLast();
      child.Update();
    }
    FindLargest();
    direction_ = kReverse;
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) {
      child.iter->Seek(target);
      child.Update();
    }
    FindSmallest();
    direction_ = kForward;
  }

  void Next() override {
    assert(Valid());
    // Ensure all children are positioned after key() when switching from
    // reverse iteration.
    if (direction_ != kForward) {
      for (auto& child : children_) {
        if (&child != current_) {
          child.iter->Seek(key());
          child.Update();
          if (child.valid && comparator_->Compare(key(), child.key) == 0) {
            child.iter->Next();
            child.Update();
          }
        }
      }
      direction_ = kForward;
    }
    current_->iter->Next();
    current_->Update();
    FindSmallest();
  }

  void Prev() override {
    assert(Valid());
    if (direction_ != kReverse) {
      for (auto& child : children_) {
        if (&child != current_) {
          child.iter->Seek(key());
          if (child.iter->Valid()) {
            // Child is at first entry >= key(); step back one.
            child.iter->Prev();
          } else {
            // Child has nothing >= key(); position at its last entry.
            child.iter->SeekToLast();
          }
          child.Update();
        }
      }
      direction_ = kReverse;
    }
    current_->iter->Prev();
    current_->Update();
    FindLargest();
  }

  Slice key() const override {
    assert(Valid());
    return current_->key;
  }

  Slice value() const override {
    assert(Valid());
    return current_->iter->value();
  }

  Status status() const override {
    for (const auto& child : children_) {
      if (!child.iter->status().ok()) return child.iter->status();
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kReverse };

  void FindSmallest() {
    MergeChild* smallest = nullptr;
    for (auto& child : children_) {
      if (child.valid) {
        if (smallest == nullptr ||
            comparator_->Compare(child.key, smallest->key) < 0) {
          smallest = &child;
        }
      }
    }
    current_ = smallest;
  }

  void FindLargest() {
    MergeChild* largest = nullptr;
    // Scan backwards so that a tie picks the latest child: reverse
    // iteration yields tied entries in exactly the reverse of their
    // forward order (internal keys never tie).
    for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
      if (it->valid) {
        if (largest == nullptr ||
            comparator_->Compare(it->key, largest->key) > 0) {
          largest = &*it;
        }
      }
    }
    current_ = largest;
  }

  const Comparator* comparator_;
  std::vector<MergeChild> children_;
  MergeChild* current_;
  Direction direction_;
};

// Concatenation of disjoint, ascending files. Positioning calls reach
// every file in order (the files after the hit are parked at their first
// entry, the ones before it at their last), so a forward walk reads each
// file exactly as a per-file merge child would, in the same order.
class SortedRunIterator : public Iterator {
 public:
  explicit SortedRunIterator(std::vector<std::unique_ptr<Iterator>> files)
      : files_(std::move(files)) {}

  bool Valid() const override { return files_[index_]->Valid(); }

  void SeekToFirst() override {
    for (auto& f : files_) f->SeekToFirst();
    index_ = 0;
    direction_ = kForward;
    SkipForward();
  }

  void SeekToLast() override {
    for (auto& f : files_) f->SeekToLast();
    index_ = files_.size() - 1;
    direction_ = kReverse;
    SkipBackward();
  }

  void Seek(const Slice& target) override {
    for (auto& f : files_) f->Seek(target);
    index_ = 0;
    direction_ = kForward;
    SkipForward();
  }

  void Next() override {
    assert(Valid());
    if (direction_ != kForward) {
      // Reverse moves left the later files anywhere; park them again.
      for (size_t j = index_ + 1; j < files_.size(); j++) {
        files_[j]->SeekToFirst();
      }
      direction_ = kForward;
    }
    files_[index_]->Next();
    SkipForward();
  }

  void Prev() override {
    assert(Valid());
    if (direction_ != kReverse) {
      for (size_t j = 0; j < index_; j++) files_[j]->SeekToLast();
      direction_ = kReverse;
    }
    files_[index_]->Prev();
    SkipBackward();
  }

  Slice key() const override { return files_[index_]->key(); }
  Slice value() const override { return files_[index_]->value(); }

  Status status() const override {
    for (const auto& f : files_) {
      if (!f->status().ok()) return f->status();
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kReverse };

  // An exhausted (or failed) file hands over to its parked neighbour; a
  // failure stays visible through status().
  void SkipForward() {
    while (!files_[index_]->Valid() && index_ + 1 < files_.size()) index_++;
  }
  void SkipBackward() {
    while (!files_[index_]->Valid() && index_ > 0) index_--;
  }

  std::vector<std::unique_ptr<Iterator>> files_;
  size_t index_ = 0;
  Direction direction_ = kForward;
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    const Comparator* comparator,
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.empty()) return NewEmptyIterator();
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<MergingIterator>(comparator, std::move(children));
}

std::unique_ptr<Iterator> NewSortedRunIterator(
    std::vector<std::unique_ptr<Iterator>> files) {
  if (files.empty()) return NewEmptyIterator();
  if (files.size() == 1) return std::move(files[0]);
  return std::make_unique<SortedRunIterator>(std::move(files));
}

}  // namespace elmo::lsm
