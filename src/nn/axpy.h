// Bundled row-axpy helpers for the GEMM-shaped kernels (MatMulKernel and
// the decode-step products of DecodeProductInto: KMajorGemv at batch 1,
// RowPairGemm across wider batches).
//
// Those kernels accumulate `out[j] += coef_k · row_k[j]` one k at a time,
// which costs a load and a store of the accumulator row per multiply-add
// and leaves the kernels bound on memory ports rather than arithmetic.
// Bundling four k-rows into one sweep quarters that traffic.  Crucially it
// does NOT change the result: for every output element the four additions
// are applied left-associated in ascending-k order —
//   out[j] = (((out[j] + c0·r0[j]) + c1·r1[j]) + c2·r2[j]) + c3·r3[j]
// — which is the exact addition sequence the one-k-at-a-time sweeps
// perform, so callers keep their bit-identity contracts.
//
// Zero weights.  MatMulKernel skips every k whose weight is zero; the
// decode kernels built on these helpers add every product, and still match
// it bit for bit.  An accumulator that starts at +0 never becomes −0 (a
// rounded sum is −0 only when both operands are −0); a ±0 weight times a
// finite activation is ±0; and x + ±0 == x for every x other than −0.  So
// adding the product is exactly the identity the skip implements, as long
// as activations are finite — ParamStore::Load rejects non-finite weights,
// and the LSTM and attention activations are bounded.
#pragma once

#include <cstdint>

namespace respect::nn {

/// One bundled sweep: out[j] accumulates c0·r0[j] … c3·r3[j] in that order.
/// `out` must not alias any of the rows (accumulators and operands live in
/// distinct tensors in every caller).
inline void FusedAxpy4(const float* r0, const float* r1, const float* r2,
                       const float* r3, float c0, float c1, float c2,
                       float c3, float* __restrict out, int n) {
  for (int j = 0; j < n; ++j) {
    out[j] = (((out[j] + c0 * r0[j]) + c1 * r1[j]) + c2 * r2[j]) + c3 * r3[j];
  }
}

/// Single-row tail sweep for the up-to-three rows left over after bundling.
inline void Axpy(const float* r, float c, float* __restrict out, int n) {
  for (int j = 0; j < n; ++j) out[j] += c * r[j];
}

/// FusedAxpy4 over TWO accumulator rows that share the same operand rows.
/// The bit-identity argument forces each output element's additions into
/// one left-associated chain, which leaves the single-row sweep latency
/// bound on that chain; a second independent accumulator row doubles the
/// instruction-level parallelism without touching either row's addition
/// order, and the shared r0..r3 loads come for free.
inline void FusedAxpy4x2(const float* r0, const float* r1, const float* r2,
                         const float* r3, float a0, float a1, float a2,
                         float a3, float b0, float b1, float b2, float b3,
                         float* __restrict outa, float* __restrict outb,
                         int n) {
  for (int j = 0; j < n; ++j) {
    outa[j] =
        (((outa[j] + a0 * r0[j]) + a1 * r1[j]) + a2 * r2[j]) + a3 * r3[j];
    outb[j] =
        (((outb[j] + b0 * r0[j]) + b1 * r1[j]) + b2 * r2[j]) + b3 * r3[j];
  }
}

/// out[0..m) = W·x for the k-major panel `wt` = Wᵀ ((k_dim, m) row-major):
/// out = Σ_k x[k]·wt[k][0..m), k ascending, four panel rows per sweep.  Per
/// output element this is the row-dot chain (((0 + W[i][0]·x[0]) + …)
/// computed m lanes at a time instead of one serial chain per row.  `out`
/// must not alias `wt` or `x`.
inline void KMajorGemv(const float* wt, const float* x, int k_dim,
                       float* __restrict out, int m) {
  for (int i = 0; i < m; ++i) out[i] = 0.0f;
  int k = 0;
  for (; k + 4 <= k_dim; k += 4) {
    const float* r0 = wt + std::int64_t{k} * m;
    FusedAxpy4(r0, r0 + m, r0 + 2 * m, r0 + 3 * m, x[k], x[k + 1], x[k + 2],
               x[k + 3], out, m);
  }
  for (; k < k_dim; ++k) Axpy(wt + std::int64_t{k} * m, x[k], out, m);
}

/// out (m, batch) = W·X for row-major W (m, k_dim), X (k_dim, batch) and
/// out: the batch is the inner axis, so the g loop is contiguous and one
/// weight load feeds `batch` multiply-adds.  Per element
/// the k-accumulation is ascending — KMajorGemv's chain — so column g's
/// bits equal a KMajorGemv on graph g's own vector.  Output rows go two at
/// a time over fixed groups of four k values: any partition of the
/// ascending k sequence into ordered sweeps keeps each element's
/// left-associated chain, while the row pair gives the hardware two
/// independent accumulation chains instead of one latency-bound chain.
/// `out` must not alias `w` or `x`.
inline void RowPairGemm(const float* w, const float* x, int k_dim, int m,
                        int batch, float* __restrict out) {
  int i = 0;
  for (; i + 2 <= m; i += 2) {
    const float* __restrict wra = w + std::int64_t{i} * k_dim;
    const float* __restrict wrb = wra + k_dim;
    float* __restrict acca = out + std::int64_t{i} * batch;
    float* __restrict accb = acca + batch;
    for (int g = 0; g < batch; ++g) acca[g] = 0.0f;
    for (int g = 0; g < batch; ++g) accb[g] = 0.0f;
    int k = 0;
    for (; k + 4 <= k_dim; k += 4) {
      const float* xk = x + std::int64_t{k} * batch;
      FusedAxpy4x2(xk, xk + batch, xk + 2 * batch, xk + 3 * batch, wra[k],
                   wra[k + 1], wra[k + 2], wra[k + 3], wrb[k], wrb[k + 1],
                   wrb[k + 2], wrb[k + 3], acca, accb, batch);
    }
    for (; k < k_dim; ++k) {
      const float* xk = x + std::int64_t{k} * batch;
      Axpy(xk, wra[k], acca, batch);
      Axpy(xk, wrb[k], accb, batch);
    }
  }
  for (; i < m; ++i) {
    const float* __restrict wrow = w + std::int64_t{i} * k_dim;
    float* __restrict acc = out + std::int64_t{i} * batch;
    for (int g = 0; g < batch; ++g) acc[g] = 0.0f;
    for (int k = 0; k < k_dim; ++k) {
      Axpy(x + std::int64_t{k} * batch, wrow[k], acc, batch);
    }
  }
}

/// The per-step product of every decode recurrence: out (m, batch) = W·X.
/// A single graph sweeps the k-major panel `wt` = Wᵀ ((k_dim, m)), whose
/// m-wide rows vectorise where a one-column GEMM would not; a lock-stepped
/// batch runs RowPairGemm over `w`.  Both branches keep MatMul's per-element
/// chain, so the bits do not depend on the batch width.
inline void DecodeProductInto(const float* w, const float* wt, const float* x,
                              int k_dim, int m, int batch,
                              float* __restrict out) {
  if (batch == 1) {
    KMajorGemv(wt, x, k_dim, out, m);
  } else {
    RowPairGemm(w, x, k_dim, m, batch, out);
  }
}

}  // namespace respect::nn
