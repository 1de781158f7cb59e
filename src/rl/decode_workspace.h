// DecodeWorkspace — every buffer a PtrNet inference decode of B
// same-node-count graphs needs, owned in one place and reused across decode
// steps AND across calls.  A single-graph decode is the B = 1 case.
//
// The decode (PtrNetAgent::DecodeGreedyBatch, and DecodeGreedy through it)
// lock-steps the B graphs through the encoder and decoder, packing their
// per-graph matrices side by side — contexts and logits are (d, n·B) /
// (1, n·B) with column g·n+j belonging to graph g, recurrent state is
// (d, B) — and writes exclusively into these buffers through the nn
// `*Into` kernels.  A decode on a workspace that has already seen the same
// (or a larger) shape performs ZERO heap allocations — the property the
// serving hot path relies on and tests/decode_parity_test.cc and
// tests/batch_decode_test.cc guard.
//
// Ownership / threading rules:
//  * A workspace is NOT thread-safe; it belongs to exactly one thread at a
//    time.  Serving code keeps one workspace per pool thread (RlEngine uses
//    a thread_local for single decodes and groups alike), so concurrent
//    decodes never share buffers.
//  * Grow-only: buffers expand to the largest (hidden_dim, nodes, batch)
//    seen and never shrink, so memory is bounded by the biggest decode the
//    owning thread ran.  The vector-of-vector members (per-graph
//    topologies, positions, result sequences) only ever grow in outer size
//    — shrinking would free the inner buffers.
//  * The same workspace may serve agents of different hidden sizes and any
//    (nodes, batch) combination — Reserve() re-shapes on entry.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "graph/topology.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/tensor.h"

namespace respect::rl {

/// Upper bound on the lock-stepped batch width.  Beyond this the GEMM
/// inner loops stop fitting the per-core cache comfortably and scheduling
/// granularity suffers; callers (RlEngine) chunk larger groups into
/// balanced pieces of at most this size.
inline constexpr int kMaxDecodeBatch = 32;

struct DecodeWorkspace {
  /// Re-shapes every buffer for a decode of `batch` graphs of `nodes` nodes
  /// each at hidden size `hidden_dim`.  Grow-only storage: steady-state
  /// calls never allocate.
  void Reserve(int hidden_dim, int nodes, int batch);

  // Per-graph analysis (outer vectors grow-only; entry g serves graph g).
  graph::TopoScratch topo_scratch;
  std::vector<graph::TopoInfo> topos;
  std::vector<std::vector<int>> pos;  // inverse of topos[g].order

  // Encoder inputs, packed (column g·n+v = graph g, node v), and the
  // hoisted per-LSTM input projections (Wx · x_all as one GEMM instead of a
  // GEMV per step).
  nn::Tensor emb_one;  // (kFeatureDim, n) — B >= 2 per-graph staging
  nn::Tensor emb;      // (kFeatureDim, n·B)
  nn::Tensor x_all;    // (d, n·B)
  nn::Tensor zx_enc;   // (4d, n·B) — encoder Wx · x_all
  nn::Tensor zx_dec;   // (4d, n·B) — decoder Wx · x_all
  nn::Tensor zx_d0;    // (4d, 1) — decoder Wx · d0, shared by every graph

  // Encoder outputs / attention state, packed (column g·n+j = graph g's
  // position-j context).
  nn::Tensor contexts;  // (d, n·B)
  nn::PointerAttention::CachedRefs refs;
  nn::PointerAttention::Scratch attn;

  // k-major recurrent panels Whᵀ for LstmCell::StepInto at B = 1, rebuilt
  // from the agent's weights on every decode (never cached across decodes,
  // so a ParamStore::Load or weight swap is picked up by the next decode).
  nn::Tensor enc_wh_t;  // (d, 4d)
  nn::Tensor dec_wh_t;  // (d, 4d)

  // Lock-stepped recurrent state and per-step scratch.
  nn::LstmCell::State state;  // h, c (d, B); encoder state, then decoder
  nn::Tensor gates;           // (4d, B)
  nn::Tensor logits;          // (1, n·B)
  nn::Tensor probs;           // (1, n·B)

  // Decoder bookkeeping, packed position-indexed (entry g·n+j = graph g,
  // position j of topos[g].order).
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> picked;
  std::vector<int> unpicked_parents;

  // Per-graph zx column selectors for the lock-stepped LSTM steps.
  std::vector<int> zx_cols;

  // Decode results: sequences[g] is graph g's order.  Only the first B
  // entries are meaningful after a batch-B decode; later entries may hold
  // stale data from a previous, larger batch (grow-only rule).
  std::vector<std::vector<graph::NodeId>> sequences;
};

}  // namespace respect::rl
