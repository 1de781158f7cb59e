#include "rl/decode_workspace.h"

#include "rl/embedding.h"

namespace respect::rl {

void DecodeWorkspace::Reserve(int hidden_dim, int nodes) {
  const int d = hidden_dim;
  const int n = nodes;
  emb.Resize(kFeatureDim, n);
  x_all.Resize(d, n);
  zx_enc.Resize(4 * d, n);
  zx_dec.Resize(4 * d, n);
  zx_d0.Resize(4 * d, 1);
  contexts.Resize(d, n);
  refs.glimpse_ref.Resize(d, n);
  refs.pointer_ref.Resize(d, n);
  attn.Reserve(d, n);
  state.h.Resize(d, 1);
  state.c.Resize(d, 1);
  gates.Resize(4 * d, 1);
  logits.Resize(1, n);
  probs.Resize(1, n);
  valid.resize(n);
  picked.resize(n);
  unpicked_parents.resize(n);
  sequence.reserve(n);
  // topo / topo_scratch / pos are sized by AnalyzeTopologyInto and the
  // decode itself (assign with steady-state capacity); the k-major panels
  // (enc_wh_t, dec_wh_t, refs.wq_*_t) by the calls that fill them.
}

}  // namespace respect::rl
