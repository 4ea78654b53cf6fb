// Times the public layer functions the engine's Put/Get/flush paths are
// built from, on the workloads' own key and value shapes (16-byte keys,
// 100-byte values, 4 KiB blocks): CRC32C, WAL record append, memtable
// insert/probe, bloom probe, block seek, block-cache lookup and table
// building. Each figure is the median of several timed batches.
#pragma once

#include <cstdint>

#include "common.h"

namespace wallbench {

void ProbeLayers(uint64_t seed, Checker* checker, RunResult* out);

}  // namespace wallbench
