#include "elmo/history_export.h"

#include <set>
#include <vector>

#include "lsm/options_schema.h"

namespace elmo::tune {

std::string ExportOptionTraceMarkdown(const TuningOutcome& outcome) {
  // Rows in first-touched order, like the paper's Table 5.
  std::vector<std::string> rows;
  std::set<std::string> seen;
  for (const auto& it : outcome.iterations) {
    for (const auto& [name, value] : it.applied_changes) {
      if (seen.insert(name).second) rows.push_back(name);
    }
  }

  std::string md = "| Parameter | Default |";
  for (size_t i = 1; i <= outcome.iterations.size(); i++) {
    md += " Iter " + std::to_string(i) + " |";
  }
  md += "\n|---|---|";
  for (size_t i = 0; i < outcome.iterations.size(); i++) md += "---|";
  md += "\n";

  const auto& schema = lsm::OptionsSchema::Instance();
  lsm::Options defaults;
  for (const auto& name : rows) {
    const auto* info = schema.Find(name);
    md += "| " + name + " | " +
          (info != nullptr ? info->get(defaults) : std::string("?")) +
          " |";
    for (const auto& it : outcome.iterations) {
      auto found = it.applied_changes.find(name);
      if (found != it.applied_changes.end()) {
        md += " " + found->second + (it.kept ? "" : "\\*") + " |";
      } else {
        md += "  |";
      }
    }
    md += "\n";
  }
  return md;
}

}  // namespace elmo::tune
