#include "lsm/version_set.h"

#include <algorithm>

#include "fault/kill_point.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "util/logging.h"

namespace elmo::lsm {

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileRef>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileRef& f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  return static_cast<int>(left);
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileRef>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files.
    for (const auto& f : files) {
      if (AfterFile(ucmp, smallest_user_key, f.get()) ||
          BeforeFile(ucmp, largest_user_key, f.get())) {
        // No overlap.
      } else {
        return true;
      }
    }
    return false;
  }

  // Binary search over disjoint files.
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index].get());
}

Version::Version(VersionSet* vset) : vset_(vset) {
  files_.resize(vset->options()->num_levels);
}

uint64_t Version::NumBytes(int level) const {
  uint64_t sum = 0;
  for (const auto& f : files_[level]) sum += f->file_size;
  return sum;
}

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    std::string* value, GetStats* stats) {
  (void)options;
  Slice ikey = k.internal_key();
  Slice user_key = k.user_key();
  const InternalKeyComparator* icmp = vset_->icmp();
  const Comparator* ucmp = icmp->user_comparator();

  bool found = false;
  bool deleted = false;
  Status status;

  auto handler = [&](const Slice& found_key, const Slice& found_value) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(found_key, &parsed)) {
      status = Status::Corruption("corrupted internal key in table");
      return;
    }
    if (ucmp->Compare(parsed.user_key, user_key) != 0) return;
    switch (parsed.type) {
      case kTypeValue:
        value->assign(found_value.data(), found_value.size());
        found = true;
        break;
      case kTypeDeletion:
        deleted = true;
        break;
    }
  };

  // Level 0: files may overlap; search newest-to-oldest.
  std::vector<FileMetaData*> l0;
  l0.reserve(files_[0].size());
  for (const auto& f : files_[0]) {
    if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
        ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
      l0.push_back(f.get());
    }
  }
  std::sort(l0.begin(), l0.end(), [](FileMetaData* a, FileMetaData* b) {
    return a->number > b->number;
  });
  for (FileMetaData* f : l0) {
    stats->files_probed++;
    Status s = vset_->table_cache()->Get(f->number, f->file_size, ikey,
                                         handler, /*level=*/0);
    if (!s.ok()) return s;
    if (!status.ok()) return status;
    if (found || deleted) stats->hit_level = 0;
    if (found) return Status::OK();
    if (deleted) return Status::NotFound(Slice());
  }

  // Deeper levels: disjoint files, binary search.
  for (int level = 1; level < num_levels(); level++) {
    const std::vector<FileRef>& files = files_[level];
    if (files.empty()) continue;
    int index = FindFile(*icmp, files, ikey);
    if (index >= static_cast<int>(files.size())) continue;
    const FileRef& f = files[index];
    if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) continue;

    stats->files_probed++;
    Status s = vset_->table_cache()->Get(f->number, f->file_size, ikey,
                                         handler, level);
    if (!s.ok()) return s;
    if (!status.ok()) return status;
    if (found || deleted) stats->hit_level = level;
    if (found) return Status::OK();
    if (deleted) return Status::NotFound(Slice());
  }

  return Status::NotFound(Slice());
}

void Version::AddIterators(const TableIterOptions& iter_opts,
                           std::vector<std::unique_ptr<Iterator>>* iters) {
  // L0 files newest first (merge order handles shadowing via sequence
  // numbers anyway, but keep deterministic ordering).
  std::vector<FileRef> l0 = files_[0];
  std::sort(l0.begin(), l0.end(), [](const FileRef& a, const FileRef& b) {
    return a->number > b->number;
  });
  TableIterOptions level_opts = iter_opts;
  level_opts.level = 0;
  for (const auto& f : l0) {
    iters->push_back(vset_->table_cache()->NewIterator(f->number,
                                                       f->file_size,
                                                       level_opts));
  }
  for (int level = 1; level < num_levels(); level++) {
    level_opts.level = level;
    for (const auto& f : files_[level]) {
      iters->push_back(vset_->table_cache()->NewIterator(f->number,
                                                         f->file_size,
                                                         level_opts));
    }
  }
}

void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileRef>* inputs) {
  assert(level >= 0);
  assert(level < num_levels());
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) user_begin = begin->user_key();
  if (end != nullptr) user_end = end->user_key();
  const Comparator* user_cmp = vset_->icmp()->user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileRef f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // Entirely before range; skip.
    } else if (end != nullptr &&
               user_cmp->Compare(file_start, user_end) > 0) {
      // Entirely after range; skip.
    } else {
      inputs->push_back(f);
      if (level == 0) {
        // L0 files may overlap each other: grow the range and restart.
        if (begin != nullptr &&
            user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::LevelSummary() const {
  std::string r = "files[ ";
  for (int level = 0; level < num_levels(); level++) {
    r += std::to_string(files_[level].size()) + " ";
  }
  r += "]";
  return r;
}

// ---------------------------------------------------------------------
// VersionBuilder: applies edits to a base version.

class VersionBuilder {
 public:
  VersionBuilder(VersionSet* vset, const Version* base)
      : vset_(vset), base_(base) {
    levels_.resize(base->num_levels());
    for (int l = 0; l < base->num_levels(); l++) {
      for (const auto& f : base->files(l)) {
        levels_[l][f->number] = f;
      }
    }
  }

  void Apply(const VersionEdit* edit) {
    for (const auto& [level, number] : edit->deleted_files_) {
      if (level < static_cast<int>(levels_.size())) {
        levels_[level].erase(number);
      }
    }
    for (const auto& [level, meta] : edit->new_files_) {
      assert(level < static_cast<int>(levels_.size()));
      auto f = std::make_shared<FileMetaData>(meta);
      levels_[level][f->number] = f;
    }
  }

  void SaveTo(Version* v) {
    const InternalKeyComparator* icmp = vset_->icmp();
    for (size_t l = 0; l < levels_.size(); l++) {
      std::vector<FileRef> files;
      files.reserve(levels_[l].size());
      for (const auto& [num, f] : levels_[l]) files.push_back(f);
      std::sort(files.begin(), files.end(),
                [icmp](const FileRef& a, const FileRef& b) {
                  int c = icmp->Compare(a->smallest.Encode(),
                                        b->smallest.Encode());
                  if (c != 0) return c < 0;
                  return a->number < b->number;
                });
#ifndef NDEBUG
      // Invariant: levels above 0 must be disjoint.
      if (l > 0) {
        for (size_t i = 1; i < files.size(); i++) {
          assert(icmp->Compare(files[i - 1]->largest.Encode(),
                               files[i]->smallest.Encode()) < 0);
        }
      }
#endif
      v->files_[l] = std::move(files);
    }
  }

 private:
  VersionSet* vset_;
  const Version* base_;
  std::vector<std::map<uint64_t, FileRef>> levels_;
};

// ---------------------------------------------------------------------
// VersionSet

VersionSet::VersionSet(const std::string& dbname, const Options* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* cmp)
    : dbname_(dbname),
      options_(options),
      table_cache_(table_cache),
      icmp_(cmp),
      compact_pointer_(options->num_levels) {
  current_ = std::make_shared<Version>(this);
  Finalize(current_.get());
}

VersionSet::~VersionSet() = default;

void VersionSet::ForceNewManifest() {
  descriptor_log_.reset();
  descriptor_file_.reset();
  manifest_file_number_ = NewFileNumber();
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }
  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(last_sequence_);

  auto v = std::make_shared<Version>(this);
  {
    VersionBuilder builder(this, current_.get());
    builder.Apply(edit);
    builder.SaveTo(v.get());
  }
  Finalize(v.get());

  // Open a manifest if none yet (initial open).
  Status s;
  std::string new_manifest_file;
  if (descriptor_log_ == nullptr) {
    assert(descriptor_file_ == nullptr);
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = options_->env->NewWritableFile(new_manifest_file, &descriptor_file_);
    if (s.ok()) {
      descriptor_log_ = std::make_unique<log::Writer>(descriptor_file_.get());
      s = WriteSnapshot(descriptor_log_.get());
    }
  }

  if (s.ok()) {
    std::string record;
    edit->EncodeTo(&record);
    s = descriptor_log_->AddRecord(Slice(record));
    ELMO_KILL_POINT("manifest:before_sync");
    if (s.ok()) {
      s = descriptor_file_->Sync();
    }
    if (s.ok()) ELMO_KILL_POINT("manifest:after_sync");
  }

  // Install CURRENT if we created a new manifest. The MANIFEST is fully
  // synced by this point, and the swap itself is temp-file + rename so a
  // crash mid-install leaves the old pointer intact.
  if (s.ok() && !new_manifest_file.empty()) {
    s = SetCurrentFile(options_->env, dbname_, manifest_file_number_);
  }

  if (s.ok()) {
    live_versions_.push_back(current_);
    current_ = v;
    if (edit->has_log_number_) log_number_ = edit->log_number_;
  } else {
    if (!new_manifest_file.empty()) {
      descriptor_log_.reset();
      descriptor_file_.reset();
      options_->env->RemoveFile(new_manifest_file);
    }
  }
  return s;
}

Status VersionSet::Recover() {
  // Read CURRENT.
  std::string current_contents;
  Status s = options_->env->ReadFileToString(CurrentFileName(dbname_),
                                             &current_contents);
  if (!s.ok()) return s;
  if (current_contents.empty() || current_contents.back() != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current_contents.pop_back();
  std::string dscname = dbname_ + "/" + current_contents;

  std::unique_ptr<SequentialFile> file;
  s = options_->env->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent MANIFEST",
                                dscname);
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t log_number = 0;
  SequenceNumber last_sequence = 0;

  auto v = std::make_shared<Version>(this);
  VersionBuilder builder(this, v.get());

  {
    struct LogReporter : public log::Reader::Reporter {
      Status* status;
      void Corruption(size_t, const Status& s) override {
        if (status->ok()) *status = s;
      }
    };
    LogReporter reporter;
    reporter.status = &s;
    log::Reader reader(file.get(), &reporter, /*checksum=*/true,
                       /*tolerate_torn_tail=*/true);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok() && edit.has_comparator_ &&
          edit.comparator_ != icmp_->user_comparator()->Name()) {
        s = Status::InvalidArgument(
            edit.comparator_ + " does not match existing comparator",
            icmp_->user_comparator()->Name());
      }
      if (s.ok()) {
        builder.Apply(&edit);
      }
      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }
      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }
      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
  }

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no next-file entry in MANIFEST");
    } else if (!have_log_number) {
      s = Status::Corruption("no log-number entry in MANIFEST");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence entry in MANIFEST");
    }
  }

  if (s.ok()) {
    auto installed = std::make_shared<Version>(this);
    builder.SaveTo(installed.get());
    Finalize(installed.get());
    live_versions_.push_back(current_);
    current_ = installed;
    manifest_file_number_ = next_file;
    next_file_number_ = next_file + 1;
    last_sequence_ = last_sequence;
    log_number_ = log_number;
  }
  return s;
}

void VersionSet::Finalize(Version* v) {
  int best_level = -1;
  double best_score = -1;

  const int num_levels = v->num_levels();

  // Dynamic level sizing: derive per-level targets downward from the
  // last non-empty level, the modern RocksDB scheme.
  std::vector<uint64_t> targets(num_levels, 0);
  if (options_->level_compaction_dynamic_level_bytes) {
    uint64_t last_size = v->NumBytes(num_levels - 1);
    uint64_t base = options_->max_bytes_for_level_base;
    targets[num_levels - 1] = std::max(last_size, base);
    for (int l = num_levels - 2; l >= 1; l--) {
      targets[l] = std::max<uint64_t>(
          static_cast<uint64_t>(targets[l + 1] /
                                options_->max_bytes_for_level_multiplier),
          1ull << 20);
    }
  } else {
    for (int l = 1; l < num_levels; l++) {
      targets[l] = options_->MaxBytesForLevel(l);
    }
  }

  v->level_scores_.assign(num_levels, 0.0);
  for (int level = 0; level < num_levels - 1; level++) {
    double score;
    if (level == 0) {
      score = v->NumFiles(0) /
              static_cast<double>(
                  options_->level0_file_num_compaction_trigger);
    } else {
      score = static_cast<double>(v->NumBytes(level)) /
              static_cast<double>(targets[level]);
    }
    v->level_scores_[level] = score;
    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }

  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  VersionEdit edit;
  edit.SetComparatorName(icmp_->user_comparator()->Name());
  for (int level = 0; level < current_->num_levels(); level++) {
    for (const auto& f : current_->files(level)) {
      edit.AddFile(level, f->number, f->file_size, f->smallest, f->largest);
    }
  }
  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(Slice(record));
}

bool VersionSet::NeedsCompaction() const {
  if (options_->disable_auto_compactions) return false;
  if (options_->compaction_style == CompactionStyle::kUniversal) {
    return current_->NumFiles(0) >=
           options_->level0_file_num_compaction_trigger;
  }
  return current_->compaction_score_ >= 1;
}

int VersionSet::NumLevelFiles(int level) const {
  return current_->NumFiles(level);
}

uint64_t VersionSet::NumLevelBytes(int level) const {
  return current_->NumBytes(level);
}

uint64_t VersionSet::EstimatePendingCompactionBytes() const {
  // Sum of bytes above target on every level plus overweight L0.
  uint64_t debt = 0;
  const Version* v = current_.get();
  int trigger = options_->level0_file_num_compaction_trigger;
  if (v->NumFiles(0) > trigger) {
    uint64_t l0_bytes = v->NumBytes(0);
    debt += l0_bytes * (v->NumFiles(0) - trigger) / (v->NumFiles(0) + 1);
  }
  for (int level = 1; level < v->num_levels() - 1; level++) {
    uint64_t size = v->NumBytes(level);
    uint64_t target = options_->MaxBytesForLevel(level);
    if (size > target) debt += size - target;
  }
  return debt;
}

std::unique_ptr<Compaction> VersionSet::PickCompaction() {
  if (options_->disable_auto_compactions) return nullptr;
  if (options_->compaction_style == CompactionStyle::kUniversal) {
    return PickUniversalCompaction();
  }
  return PickLevelCompaction();
}

std::unique_ptr<Compaction> VersionSet::PickLevelCompaction() {
  if (current_->compaction_score_ < 1) return nullptr;
  const int level = current_->compaction_level_;
  assert(level >= 0);
  assert(level + 1 < current_->num_levels());

  std::unique_ptr<Compaction> c(new Compaction(options_, level, level + 1));
  c->input_version_ = current_;

  // Round-robin: pick the first file past compact_pointer_[level].
  for (const auto& f : current_->files(level)) {
    if (compact_pointer_[level].empty() ||
        icmp_->Compare(f->largest.Encode(),
                       Slice(compact_pointer_[level])) > 0) {
      c->inputs_[0].push_back(f);
      break;
    }
  }
  if (c->inputs_[0].empty() && !current_->files(level).empty()) {
    // Wrap around.
    c->inputs_[0].push_back(current_->files(level)[0]);
  }
  if (c->inputs_[0].empty()) return nullptr;

  // L0: all overlapping files must come along.
  if (level == 0) {
    InternalKey smallest = c->inputs_[0][0]->smallest;
    InternalKey largest = c->inputs_[0][0]->largest;
    current_->GetOverlappingInputs(0, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c.get());
  return c;
}

std::unique_ptr<Compaction> VersionSet::PickUniversalCompaction() {
  // Simplified size-tiered universal compaction: when the run count
  // reaches the trigger, merge every L0 run into one.
  if (current_->NumFiles(0) < options_->level0_file_num_compaction_trigger) {
    return nullptr;
  }
  std::unique_ptr<Compaction> c(
      new Compaction(options_, /*level=*/0, /*output_level=*/0));
  c->input_version_ = current_;
  c->inputs_[0] = current_->files(0);
  // Universal outputs one big run; do not cap the output file size.
  c->max_output_file_size_ = UINT64_MAX;
  return c;
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();

  // Range of the level-L inputs.
  InternalKey smallest = c->inputs_[0][0]->smallest;
  InternalKey largest = c->inputs_[0][0]->largest;
  for (const auto& f : c->inputs_[0]) {
    if (icmp_->Compare(f->smallest.Encode(), smallest.Encode()) < 0) {
      smallest = f->smallest;
    }
    if (icmp_->Compare(f->largest.Encode(), largest.Encode()) > 0) {
      largest = f->largest;
    }
  }

  current_->GetOverlappingInputs(level + 1, &smallest, &largest,
                                 &c->inputs_[1]);

  // Remember where to resume next time.
  compact_pointer_[level] = largest.Encode().ToString();
}

std::unique_ptr<Compaction> VersionSet::CompactRange(int level,
                                                     const InternalKey* begin,
                                                     const InternalKey* end) {
  std::vector<FileRef> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) return nullptr;

  std::unique_ptr<Compaction> c(new Compaction(options_, level, level + 1));
  c->input_version_ = current_;
  c->inputs_[0] = std::move(inputs);
  SetupOtherInputs(c.get());
  return c;
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) const {
  // Old versions pinned by in-flight readers still need their files.
  auto it = live_versions_.begin();
  while (it != live_versions_.end()) {
    if (auto v = it->lock()) {
      for (int level = 0; level < v->num_levels(); level++) {
        for (const auto& f : v->files(level)) {
          live->insert(f->number);
        }
      }
      ++it;
    } else {
      it = live_versions_.erase(it);
    }
  }
  for (int level = 0; level < current_->num_levels(); level++) {
    for (const auto& f : current_->files(level)) {
      live->insert(f->number);
    }
  }
}

// ---------------------------------------------------------------------
// Compaction

Compaction::Compaction(const Options* options, int level, int output_level)
    : level_(level),
      output_level_(output_level),
      max_output_file_size_(options->target_file_size_base),
      level_ptrs_(options->num_levels, 0) {
  // Per-level target file sizes grow by target_file_size_multiplier.
  for (int l = 1; l < output_level; l++) {
    max_output_file_size_ *= options->target_file_size_multiplier;
  }
}

bool Compaction::IsTrivialMove() const {
  if (level_ == output_level_) return false;  // universal self-merge
  return num_input_files(0) == 1 && num_input_files(1) == 0;
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (const auto& f : inputs_[which]) {
      edit->RemoveFile(which == 0 ? level_ : output_level_, f->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  const Comparator* user_cmp =
      input_version_->vset_->icmp()->user_comparator();
  for (int lvl = output_level_ + 1; lvl < input_version_->num_levels();
       lvl++) {
    const std::vector<FileRef>& files = input_version_->files(lvl);
    while (level_ptrs_[lvl] < files.size()) {
      const FileRef& f = files[level_ptrs_[lvl]];
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          return false;  // key may be present in a deeper level
        }
        break;
      }
      level_ptrs_[lvl]++;
    }
  }
  return true;
}

uint64_t Compaction::TotalInputBytes() const {
  uint64_t total = 0;
  for (int which = 0; which < 2; which++) {
    for (const auto& f : inputs_[which]) total += f->file_size;
  }
  return total;
}

}  // namespace elmo::lsm
