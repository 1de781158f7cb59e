// Frozen pre-optimization PtrNet decode — the allocate-per-op inference path
// exactly as it existed before the fused zero-allocation rewrite.
//
// Kept on purpose, not dead code: the optimized DecodeGreedy and
// DecodeGreedyBatch must produce BIT-IDENTICAL sequences to this
// implementation (guarded by tests/decode_parity_test.cc and
// tests/batch_decode_test.cc), and bench_micro reports the before/after
// decode throughput against it.  It re-derives every step from the agent's
// ParamStore through the allocating nn value ops, so any arithmetic drift in
// the fused kernels shows up as a sequence mismatch.
#pragma once

#include <vector>

#include "graph/dag.h"
#include "rl/ptrnet.h"

namespace respect::rl {

/// Greedy argmax decode via the pre-optimization path.
[[nodiscard]] std::vector<graph::NodeId> ReferenceDecodeGreedy(
    const PtrNetAgent& agent, const graph::Dag& dag);

}  // namespace respect::rl
