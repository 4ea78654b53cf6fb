#include "elmo/history_export.h"

#include <gtest/gtest.h>

#include "lsm/db.h"

namespace elmo::tune {
namespace {

TuningOutcome MakeOutcome() {
  TuningOutcome out;
  out.baseline.ops_per_sec = 1000;
  for (int i = 0; i < 1000; i++) out.baseline.write_micros.Add(10.0);

  IterationRecord it1;
  it1.iteration = 1;
  it1.result.ops_per_sec = 1500;
  for (int i = 0; i < 1000; i++) it1.result.write_micros.Add(8.0);
  it1.kept = true;
  it1.applied_changes = {{"max_background_jobs", "4"},
                         {"wal_bytes_per_sync", "1048576"}};
  out.iterations.push_back(it1);

  IterationRecord it2;
  it2.iteration = 2;
  it2.result.ops_per_sec = 900;
  it2.kept = false;
  it2.applied_changes = {{"max_background_jobs", "8"}};
  out.iterations.push_back(it2);

  out.best_result = it1.result;
  return out;
}

TEST(HistoryExport, MarkdownTraceShape) {
  std::string md = ExportOptionTraceMarkdown(MakeOutcome());
  EXPECT_NE(md.find("| Parameter | Default | Iter 1 | Iter 2 |"),
            std::string::npos);
  // max_background_jobs: default 2, kept "4" at iter 1, reverted "8\*"
  // at iter 2.
  EXPECT_NE(md.find("| max_background_jobs | 2 | 4 | 8\\* |"),
            std::string::npos);
  // wal_bytes_per_sync appears only in iteration 1.
  EXPECT_NE(md.find("| wal_bytes_per_sync | 0 | 1048576 |  |"),
            std::string::npos);
}

TEST(HistoryExport, EmptyOutcome) {
  TuningOutcome out;
  std::string md = ExportOptionTraceMarkdown(out);
  EXPECT_NE(md.find("| Parameter | Default |"), std::string::npos);
}

}  // namespace
}  // namespace elmo::tune
