#include "rl/decode_workspace.h"

#include "rl/embedding.h"

namespace respect::rl {

void DecodeWorkspace::ReserveGraphs(int nodes, int graphs) {
  // Outer vectors only grow (shrinking would free the inner buffers and
  // break the zero-allocation steady state).
  if (static_cast<int>(topos.size()) < graphs) topos.resize(graphs);
  if (static_cast<int>(pos.size()) < graphs) pos.resize(graphs);
  if (static_cast<int>(sequences.size()) < graphs) sequences.resize(graphs);
  for (int g = 0; g < graphs; ++g) sequences[g].reserve(nodes);
  lane_graph.resize(graphs);
  // topo_scratch / topos / pos are sized by AnalyzeTopologyInto and the
  // decode itself (assign with steady-state capacity).
}

void DecodeWorkspace::Reserve(int hidden_dim, int nodes, int lanes) {
  const int d = hidden_dim;
  const int n = nodes;
  const int b = lanes;
  const int total = n * b;
  emb.Resize(kFeatureDim, total);
  x_all.Resize(d, total);
  zx_enc.Resize(4 * d, total);
  zx_dec.Resize(4 * d, total);
  zx_d0.Resize(4 * d, 1);
  contexts.Resize(d, total);
  refs.glimpse_ref.Resize(d, total);
  refs.pointer_ref.Resize(d, total);
  attn.Reserve(d, n, b);
  state.h.Resize(d, b);
  state.c.Resize(d, b);
  gates.Resize(4 * d, b);
  logits.Resize(1, total);
  probs.Resize(1, total);
  valid.resize(total);
  unpicked_parents.resize(total);
  ready_count.resize(b);
  chain_end.resize(b);
  forced.resize(total);
  replay_parents.resize(n);
  zx_cols.resize(b);
  // emb_one is sized by EmbedGraphInto; the k-major panels (enc_wh_t,
  // dec_wh_t, refs.wq_*_t) by the calls that fill them.
}

}  // namespace respect::rl
