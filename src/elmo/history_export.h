// Export helper for tuning histories: a Table-5-style change matrix in
// Markdown.
#pragma once

#include <string>

#include "elmo/tuning_session.h"

namespace elmo::tune {

// Markdown table: one row per option touched, one column per iteration
// (the shape of the paper's Table 5). Reverted iterations are starred.
std::string ExportOptionTraceMarkdown(const TuningOutcome& outcome);

}  // namespace elmo::tune
