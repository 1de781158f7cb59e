// Glimpse + pointer attention networks (Algorithm 1 of the paper; the
// attention mechanism of Bello et al. / Vinyals et al. pointer networks).
//
// Given the encoder context matrix C (hidden x |V|) and a decoder query q:
//   glimpse:  a = softmax(v_g^T tanh(W_ref_g C + (W_q_g q + b_g) ⊕))   (1,|V|)
//             g = C a^T                                                (d,1)
//   pointer:  u = 10·tanh(v_p^T tanh(W_ref_p C + (W_q_p g + b_p) ⊕))   (1,|V|)
// where ⊕ broadcasts the column across |V| and already-picked nodes are
// masked to -inf (probability zero) — "the logits of the nodes that appeared
// in the solution π are set to −∞" (§III-B).
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "nn/params.h"
#include "nn/tape.h"
#include "nn/tensor.h"

namespace respect::nn {

class PointerAttention {
 public:
  /// Creates (or rebinds to) parameters under `prefix` in `store`.
  PointerAttention(ParamStore& store, std::string prefix, int hidden_dim,
                   std::mt19937_64& rng);

  /// Logit clipping constant (Bello et al. use 10).
  static constexpr float kLogitClip = 10.0f;

  // ---- Inference path (no gradients) ----

  /// Per-sequence state reused across decode steps: the W_ref C products
  /// and the k-major query panels W_qᵀ that PointerLogitsInto's per-step
  /// W_q·h GEMVs sweep at B = 1.  The panels are snapshots of the store's
  /// weights, rebuilt with the products on every PrecomputeInto rather than
  /// cached on the ParamStore, so ParamStore::Load and weight swaps stay
  /// safe.
  struct CachedRefs {
    Tensor glimpse_ref;  // (d, V)
    Tensor pointer_ref;  // (d, V)
    Tensor wq_g_t;       // (d, d) — W_q_gᵀ
    Tensor wq_p_t;       // (d, d) — W_q_pᵀ
  };

  /// Fills `refs` for `contexts`, resizing and overwriting its tensors in
  /// place (grow-only storage reused across calls).
  void PrecomputeInto(const Tensor& contexts, CachedRefs& refs) const;

  /// Caller-owned scratch for PointerLogitsInto; Reserve() sizes every
  /// buffer (grow-only storage, so steady-state reuse never allocates).
  /// `valid_idx` holds every valid column of the packed layout, grouped by
  /// graph, with `valid_begin[g] .. valid_begin[g+1]` delimiting graph g's
  /// slice.
  struct Scratch {
    Tensor q;                      // (d, B) — glimpse then pointer queries
    Tensor scores;                 // (1, n·B) — glimpse attention scores
    Tensor attn;                   // (1, n·B) — glimpse attention weights
    Tensor glimpse;                // (d, B)
    std::vector<int> valid_idx;    // packed valid columns, grouped by graph
    std::vector<int> valid_begin;  // (B+1) offsets into valid_idx
    void Reserve(int hidden_dim, int nodes, int batch);
  };

  /// In-place inference path over B same-node-count graphs packed side by
  /// side: `contexts` is (d, n·B) with column g·n+j = graph g's node j,
  /// `refs` the PrecomputeInto of that packed matrix, `h` the (d, B)
  /// lock-stepped decoder hidden state (LstmCell::State layout), and
  /// `valid` an n·B byte mask (0/non-0) in the same packing.  Writes the
  /// masked pointer logits into `logits` ((1, n·B)) using only `scratch`'s
  /// buffers — no heap allocation.
  ///
  /// Only the VALID columns of `logits` are computed (masked entries are
  /// left stale): the masked softmax zeroes them regardless, so every
  /// observable value — and the decoded sequence — is identical to the
  /// allocating all-column reference (PointerLogits in
  /// tests/support/reference_decode.h), while the per-step cost drops from
  /// O(d·V) to
  /// O(d·|valid|).  With ready-set masking (the deployment default) that is
  /// the difference between O(V) and O(deg) attention work per step.
  ///
  /// Both query products go through nn::DecodeProductInto (the k-major
  /// panels `refs.wq_*_t` at B = 1, a row-pair GEMM across wider batches),
  /// and every per-column accumulation keeps the reference's order, so
  /// each graph's logits are bit-identical to the reference on that graph
  /// alone.
  void PointerLogitsInto(const Tensor& contexts, const CachedRefs& refs,
                         const Tensor& h,
                         const std::vector<std::uint8_t>& valid, int nodes,
                         int batch, Scratch& scratch, Tensor& logits) const;

  // ---- Training path (tape-recorded) ----

  struct TapeRefs {
    Ref contexts = -1;     // (d, V)
    Ref glimpse_ref = -1;  // (d, V)
    Ref pointer_ref = -1;  // (d, V)
  };
  [[nodiscard]] TapeRefs Precompute(Tape& tape, Ref contexts);

  /// Returns the clipped pointer logits node (1, V); masking happens inside
  /// the caller's PickLogSoftmax.
  [[nodiscard]] Ref PointerLogits(Tape& tape, const TapeRefs& refs, Ref h,
                                  const std::vector<bool>& valid);

 private:
  void BindToTape(Tape& tape);

  ParamStore& store_;
  std::string prefix_;
  // Full parameter names, precomputed so hot-path lookups never concatenate
  // strings (several exceed the SSO limit).  Tensors are re-looked-up per
  // call rather than cached by address, so ParamStore::Load stays safe.
  std::string wref_g_name_, wq_g_name_, bg_name_, vg_name_;
  std::string wref_p_name_, wq_p_name_, bp_name_, vp_name_;
  int hidden_dim_ = 0;

  std::uint64_t bound_tape_id_ = 0;
  Ref wref_g_ = -1, wq_g_ = -1, bg_ = -1, vg_ = -1;
  Ref wref_p_ = -1, wq_p_ = -1, bp_ = -1, vp_ = -1;
};

}  // namespace respect::nn
