#include "rl/decode_workspace.h"

#include "rl/embedding.h"

namespace respect::rl {

void DecodeWorkspace::Reserve(int hidden_dim, int nodes, int batch) {
  const int d = hidden_dim;
  const int n = nodes;
  const int b = batch;
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
  picked.resize(total);
  unpicked_parents.resize(total);
  zx_cols.resize(b);
  // Outer vectors only grow (shrinking would free the inner buffers and
  // break the zero-allocation steady state).
  if (static_cast<int>(topos.size()) < b) topos.resize(b);
  if (static_cast<int>(pos.size()) < b) pos.resize(b);
  if (static_cast<int>(sequences.size()) < b) sequences.resize(b);
  for (int g = 0; g < b; ++g) sequences[g].reserve(n);
  // topo_scratch / topos / pos and emb_one are sized by AnalyzeTopologyInto,
  // EmbedGraphInto and the decode itself (assign with steady-state
  // capacity); the k-major panels (enc_wh_t, dec_wh_t, refs.wq_*_t) by the
  // calls that fill them.
}

}  // namespace respect::rl
