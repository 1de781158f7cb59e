// DecodeWorkspace — every buffer a PtrNet inference decode of B
// same-node-count graphs needs, owned in one place and reused across decode
// steps AND across calls.  A single-graph decode is the B = 1 case.
//
// The decode (PtrNetAgent::DecodeGreedyBatch, and DecodeGreedy through it)
// first drops the graphs whose decode has no choice at all (one topological
// order under the ready-set mask); the remaining L <= B graphs — the lanes
// — are lock-stepped through the encoder and decoder, packing their
// per-graph matrices side by side: contexts and logits are (d, n·L) /
// (1, n·L) with column l·n+j belonging to lane l, recurrent state is
// (d, L).  Everything is written exclusively into these buffers through
// the nn `*Into` kernels.  A decode on a workspace that has already seen
// the same (or a larger) shape performs ZERO heap allocations — the
// property the serving hot path relies on and tests/decode_parity_test.cc
// and tests/batch_decode_test.cc guard.
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
//    (nodes, batch) combination — ReserveGraphs() and Reserve() re-shape on
//    entry.
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
  /// Sizes the per-graph vectors for a decode of `graphs` graphs of
  /// `nodes` nodes each.
  void ReserveGraphs(int nodes, int graphs);

  /// Re-shapes every packed buffer for `lanes` graphs of `nodes` nodes
  /// lock-stepped at hidden size `hidden_dim`.  Grow-only storage:
  /// steady-state calls never allocate.
  void Reserve(int hidden_dim, int nodes, int lanes);

  // Per-graph analysis (outer vectors grow-only; entry g serves graph g).
  graph::TopoScratch topo_scratch;
  std::vector<graph::TopoInfo> topos;
  std::vector<std::vector<int>> pos;  // inverse of topos[g].order

  // lane_graph[l] is the graph lane l decodes (ascending graph index).
  std::vector<int> lane_graph;

  // Encoder inputs, packed (column l·n+v = lane l, node v), and the
  // hoisted per-LSTM input projections (Wx · x_all as one GEMM instead of a
  // GEMV per step).
  nn::Tensor emb_one;  // (kFeatureDim, n) — L >= 2 per-graph staging
  nn::Tensor emb;      // (kFeatureDim, n·L)
  nn::Tensor x_all;    // (d, n·L)
  nn::Tensor zx_enc;   // (4d, n·L) — encoder Wx · x_all
  nn::Tensor zx_dec;   // (4d, n·L) — decoder Wx · x_all
  nn::Tensor zx_d0;    // (4d, 1) — decoder Wx · d0, shared by every lane

  // Encoder outputs / attention state, packed (column l·n+j = lane l's
  // position-j context).
  nn::Tensor contexts;  // (d, n·L)
  nn::PointerAttention::CachedRefs refs;
  nn::PointerAttention::Scratch attn;

  // k-major recurrent panels Whᵀ for LstmCell::StepInto at L = 1, rebuilt
  // from the agent's weights on every decode (never cached across decodes,
  // so a ParamStore::Load or weight swap is picked up by the next decode).
  nn::Tensor enc_wh_t;  // (d, 4d)
  nn::Tensor dec_wh_t;  // (d, 4d)

  // Lock-stepped recurrent state and per-step scratch.
  nn::LstmCell::State state;  // h, c (d, L); encoder state, then decoder
  nn::Tensor gates;           // (4d, L)
  nn::Tensor logits;          // (1, n·L)
  nn::Tensor probs;           // (1, n·L)

  // Decoder bookkeeping, packed position-indexed (entry l·n+j = lane l,
  // position j of its graph's topological order).  `valid` is the byte
  // mask the attention reads, updated per pick rather than rebuilt.
  std::vector<std::uint8_t> valid;
  std::vector<int> unpicked_parents;

  // Forced steps, per lane: ready_count[l] is the number of set `valid`
  // bytes of lane l.  When it is 1, the Kahn replay writes the forced
  // positions of steps [t, chain_end[l]) into forced[l·n + t ...], where
  // chain_end[l] is the lane's next choice step (n when it has none);
  // replay_parents is the replay's scratch copy of one lane's
  // unpicked_parents.
  std::vector<int> ready_count;
  std::vector<int> chain_end;
  std::vector<int> forced;
  std::vector<int> replay_parents;

  // Per-lane zx column selectors for the lock-stepped LSTM steps.
  std::vector<int> zx_cols;

  // Decode results: sequences[g] is graph g's order.  Only the first B
  // entries are meaningful after a batch-B decode; later entries may hold
  // stale data from a previous, larger batch (grow-only rule).
  std::vector<std::vector<graph::NodeId>> sequences;
};

}  // namespace respect::rl
