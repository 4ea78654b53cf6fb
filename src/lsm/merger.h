// Merging iterator: the N-way merge over memtable + SST iterators that
// backs the DB-wide cursor and compactions.
#pragma once

#include <memory>
#include <vector>

#include "table/comparator.h"
#include "table/iterator.h"

namespace elmo::lsm {

// Takes ownership of the child iterators.
std::unique_ptr<Iterator> NewMergingIterator(
    const Comparator* comparator,
    std::vector<std::unique_ptr<Iterator>> children);

// One iterator over a sorted run: `files` hold disjoint key ranges in
// ascending order (a level >= 1). Positioning calls reach every file in
// order, so the run reads exactly what one merge child per file would.
// Takes ownership of the file iterators.
std::unique_ptr<Iterator> NewSortedRunIterator(
    std::vector<std::unique_ptr<Iterator>> files);

}  // namespace elmo::lsm
