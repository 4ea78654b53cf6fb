// DBIter: wraps the merged internal-key iterator into the user-facing
// view — hides sequence numbers, collapses multiple versions of a key,
// and skips deletion markers.
#pragma once

#include <memory>

#include "env/env.h"
#include "lsm/dbformat.h"
#include "lsm/span.h"
#include "table/iterator.h"

namespace elmo::lsm {

// `env` (engine clock) and `span_sink` are optional: when `env` is
// non-null every Seek*/Next/Prev opens a kIterSeek/kIterNext root span;
// `span_sink` (the DB's slow-op tracer) receives the completed trees.
std::unique_ptr<Iterator> NewDBIterator(
    const Comparator* user_comparator,
    std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence,
    Env* env = nullptr, SpanSink* span_sink = nullptr);

}  // namespace elmo::lsm
