// Frozen pre-optimization PtrNet decode — the allocate-per-op inference path
// exactly as it existed before the fused zero-allocation rewrite.
//
// Kept on purpose, not dead code: the optimized DecodeGreedy and
// DecodeGreedyBatch must produce BIT-IDENTICAL sequences to this
// implementation (guarded by tests/decode_parity_test.cc and
// tests/batch_decode_test.cc), and bench_micro reports the before/after
// decode throughput against it.  It re-derives every step from the agent's
// ParamStore through the allocating nn value ops, so any arithmetic drift in
// the fused kernels shows up as a sequence mismatch.  Its two step helpers
// are exported: they are the only value-path LSTM step and pointer logits
// in the tree, the B = 1 references the fused kernels (LstmCell::StepInto,
// PointerAttention::PointerLogitsInto) and the tape path are checked
// against.  Being test-only, it lives outside librespect, in the
// respect_test_support library.
#pragma once

#include <string>
#include <vector>

#include "graph/dag.h"
#include "nn/params.h"
#include "nn/tensor.h"
#include "rl/ptrnet.h"

namespace respect::rl {

/// One sequence's LSTM state: h and c, each (d, 1).
struct LstmState {
  nn::Tensor h;
  nn::Tensor c;
};

/// The original allocating LstmCell step (B = 1) over the parameters
/// `prefix`.{Wx,Wh,b} of `store`, hidden size `d`.
[[nodiscard]] LstmState LstmStep(const nn::ParamStore& store,
                                 const std::string& prefix,
                                 const nn::Tensor& x, const LstmState& prev,
                                 int d);

/// The original allocating PointerAttention logits (1, V) over the
/// parameters under `prefix`: every column computed, then clipped; masked
/// columns enter only through the glimpse softmax.  `glimpse_ref` and
/// `pointer_ref` are the W_ref_g·C and W_ref_p·C products.
[[nodiscard]] nn::Tensor PointerLogits(
    const nn::ParamStore& store, const std::string& prefix,
    const nn::Tensor& contexts, const nn::Tensor& glimpse_ref,
    const nn::Tensor& pointer_ref, const nn::Tensor& h,
    const std::vector<bool>& valid, int d);

/// Greedy argmax decode via the pre-optimization path.
[[nodiscard]] std::vector<graph::NodeId> ReferenceDecodeGreedy(
    const PtrNetAgent& agent, const graph::Dag& dag);

}  // namespace respect::rl
