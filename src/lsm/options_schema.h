// OptionsSchema: the machine-readable registry of every tunable option.
// One definition per option — name, section, type, legal range,
// deprecation and blacklist flags, a prose description (fed to the LLM
// prompt), and the binding into the Options struct.
//
// Everything that touches option *text* goes through this table: the
// options-file serializer/parser, the LLM response evaluator, and the
// Safeguard Enforcer's hallucination / deprecation / blacklist checks.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lsm/options.h"
#include "util/ini.h"
#include "util/status.h"

namespace elmo::lsm {

enum class OptionType { kBool, kInt, kUint, kDouble, kEnum };

struct OptionInfo {
  std::string name;
  std::string section;  // "DBOptions" | "CFOptions" | "TableOptions"
  OptionType type = OptionType::kInt;
  // Range for numeric types (inclusive). Ignored for bool/enum.
  int64_t min_value = 0;
  int64_t max_value = 0;
  std::vector<std::string> enum_values;
  // The Safeguard Enforcer refuses changes to blacklisted options.
  bool blacklisted = false;
  // True when DB::SetOptions() can change the option on a live DB; the
  // constructor marks the mutable subset explicitly, everything else is
  // immutable-at-runtime (open-time only). Every entry is one or the
  // other by construction — tests enforce the partition.
  bool runtime_mutable = false;
  std::string description;

  std::function<Status(Options*, const std::string&)> set;
  std::function<std::string(const Options&)> get;
};

// An option name that older engine versions / blog posts used but this
// version does not accept (the paper notes LLMs fixate on these).
struct DeprecatedOption {
  std::string name;
  std::string note;  // e.g. "replaced by max_background_jobs"
};

class OptionsSchema {
 public:
  static const OptionsSchema& Instance();

  const std::vector<OptionInfo>& all() const { return options_; }
  const std::vector<DeprecatedOption>& deprecated() const {
    return deprecated_;
  }

  // Exact-name lookup; nullptr when unknown.
  const OptionInfo* Find(const std::string& name) const;
  const DeprecatedOption* FindDeprecated(const std::string& name) const;

  // True when `name` exists and can be changed on a live DB via
  // DB::SetOptions().
  bool IsMutable(const std::string& name) const;
  // Names of every runtime-mutable option, in registration order.
  std::vector<std::string> MutableNames() const;

  // Validate + apply one value. Errors: unknown option, type mismatch,
  // out of range.
  Status Apply(Options* opts, const std::string& name,
               const std::string& value) const;

  // Serialize to a RocksDB-style options file (sections DBOptions /
  // CFOptions / TableOptions).
  IniDoc ToIni(const Options& opts) const;
  std::string ToIniText(const Options& opts) const;

  // Parse an options document. Unknown keys are collected into
  // *unknown (never applied); values that fail validation are collected
  // into *invalid as "name=value: reason".
  Status FromIni(const IniDoc& doc, Options* opts,
                 std::vector<std::string>* unknown = nullptr,
                 std::vector<std::string>* invalid = nullptr) const;

  // Render "name = value  # description [range]" lines for the prompt.
  std::string DescribeAll(const Options& current) const;

  // Same rendering restricted to the runtime-mutable subset; feeds the
  // online tuner's "live delta" prompt section.
  std::string DescribeMutable(const Options& current) const;

 private:
  OptionsSchema();

  std::vector<OptionInfo> options_;
  std::vector<DeprecatedOption> deprecated_;
};

// Helpers shared with the bench harness / elmo framework.
std::string CompactionStyleToString(CompactionStyle style);
std::optional<CompactionStyle> CompactionStyleFromString(
    const std::string& s);
std::string CompressionToString(CompressionType type);
std::optional<CompressionType> CompressionFromString(const std::string& s);

}  // namespace elmo::lsm
