// DecodeWorkspace — every buffer one PtrNet inference decode needs, owned in
// one place and reused across decode steps AND across calls.
//
// The fused decode path (PtrNetAgent::DecodeGreedy/DecodeSampled workspace
// overloads) writes exclusively into these buffers through the nn `*Into`
// kernels, so a decode on a workspace that has already seen a graph of the
// same (or larger) size performs ZERO heap allocations — the property the
// serving hot path relies on and tests/decode_parity_test.cc guards.
//
// Ownership / threading rules:
//  * A workspace is NOT thread-safe; it belongs to exactly one thread at a
//    time.  Serving code keeps one workspace per pool thread (RlEngine uses
//    a thread_local), so concurrent decodes never share buffers.
//  * Buffers grow to the largest (hidden_dim, nodes) seen and never shrink:
//    memory is bounded by the biggest graph the owning thread decoded.
//  * The same workspace may serve agents of different hidden sizes and
//    graphs of any size — Reserve() re-shapes on entry to every decode.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "graph/topology.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/tensor.h"

namespace respect::rl {

struct DecodeWorkspace {
  /// Re-shapes every buffer for a decode of `nodes` nodes at hidden size
  /// `hidden_dim`.  Grow-only storage: steady-state calls never allocate.
  void Reserve(int hidden_dim, int nodes);

  // Graph analysis.
  graph::TopoScratch topo_scratch;
  graph::TopoInfo topo;
  std::vector<int> pos;  // inverse of topo.order

  // Encoder inputs: embedding, projected inputs, and the hoisted per-LSTM
  // input projections (Wx · x_all as one GEMM instead of a GEMV per step).
  nn::Tensor emb;     // (kFeatureDim, n)
  nn::Tensor x_all;   // (d, n)
  nn::Tensor zx_enc;  // (4d, n) — encoder Wx · x_all
  nn::Tensor zx_dec;  // (4d, n) — decoder Wx · x_all
  nn::Tensor zx_d0;   // (4d, 1) — decoder Wx · d0 (trainable first input)

  // Encoder outputs / attention state.
  nn::Tensor contexts;  // C (d, n)
  nn::PointerAttention::CachedRefs refs;
  nn::PointerAttention::Scratch attn;

  // k-major recurrent panels Whᵀ for LstmCell::StepInto, rebuilt from the
  // agent's weights on every decode (never cached across decodes, so a
  // ParamStore::Load or weight swap is picked up by the next decode).
  nn::Tensor enc_wh_t;  // (d, 4d)
  nn::Tensor dec_wh_t;  // (d, 4d)

  // Recurrent state and per-step scratch.
  nn::LstmCell::State state;  // h, c (d, 1); encoder state, then decoder
  nn::Tensor gates;           // (4d, 1)
  nn::Tensor logits;          // (1, n)
  nn::Tensor probs;           // (1, n)

  // Decoder bookkeeping (position-indexed over topo.order).
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> picked;
  std::vector<int> unpicked_parents;
  std::vector<graph::NodeId> sequence;  // the decode result
};

}  // namespace respect::rl
