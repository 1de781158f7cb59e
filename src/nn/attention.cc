#include "nn/attention.h"

#include <cmath>

#include <stdexcept>

#include "nn/axpy.h"

namespace respect::nn {

PointerAttention::PointerAttention(ParamStore& store, std::string prefix,
                                   int hidden_dim, std::mt19937_64& rng)
    : store_(store),
      prefix_(std::move(prefix)),
      wref_g_name_(prefix_ + ".Wref_g"),
      wq_g_name_(prefix_ + ".Wq_g"),
      bg_name_(prefix_ + ".b_g"),
      vg_name_(prefix_ + ".v_g"),
      wref_p_name_(prefix_ + ".Wref_p"),
      wq_p_name_(prefix_ + ".Wq_p"),
      bp_name_(prefix_ + ".b_p"),
      vp_name_(prefix_ + ".v_p"),
      hidden_dim_(hidden_dim) {
  store_.GetOrCreate(wref_g_name_, hidden_dim_, hidden_dim_, rng);
  store_.GetOrCreate(wq_g_name_, hidden_dim_, hidden_dim_, rng);
  store_.GetOrCreate(bg_name_, hidden_dim_, 1, rng);
  store_.GetOrCreate(vg_name_, hidden_dim_, 1, rng);
  store_.GetOrCreate(wref_p_name_, hidden_dim_, hidden_dim_, rng);
  store_.GetOrCreate(wq_p_name_, hidden_dim_, hidden_dim_, rng);
  store_.GetOrCreate(bp_name_, hidden_dim_, 1, rng);
  store_.GetOrCreate(vp_name_, hidden_dim_, 1, rng);
}

PointerAttention::CachedRefs PointerAttention::Precompute(
    const Tensor& contexts) const {
  CachedRefs refs;
  PrecomputeInto(contexts, refs);
  return refs;
}

void PointerAttention::PrecomputeInto(const Tensor& contexts,
                                      CachedRefs& refs) const {
  if (contexts.Rows() != hidden_dim_) {
    throw std::invalid_argument("PointerAttention: contexts must be (d, V)");
  }
  refs.glimpse_ref.Resize(hidden_dim_, contexts.Cols());
  refs.pointer_ref.Resize(hidden_dim_, contexts.Cols());
  MatMulInto(store_.Value(wref_g_name_), contexts, refs.glimpse_ref);
  MatMulInto(store_.Value(wref_p_name_), contexts, refs.pointer_ref);
  refs.wq_g_t.Resize(hidden_dim_, hidden_dim_);
  refs.wq_p_t.Resize(hidden_dim_, hidden_dim_);
  TransposeInto(store_.Value(wq_g_name_), refs.wq_g_t);
  TransposeInto(store_.Value(wq_p_name_), refs.wq_p_t);
}

namespace {

/// Fused attention-score kernel: scores[j] = v^T tanh(ref[:,j] + q), with no
/// (d, V) temporaries.  This runs once per decode step over every node, so
/// it dominates inference cost on large graphs.
void ScoreColumns(const Tensor& ref, const Tensor& q, const Tensor& v,
                  Tensor& scores) {
  const int d = ref.Rows();
  const int n = ref.Cols();
  for (int j = 0; j < n; ++j) scores.At(0, j) = 0.0f;
  for (int i = 0; i < d; ++i) {
    const float qi = q.At(i, 0);
    const float vi = v.At(i, 0);
    const float* row = ref.Data() + static_cast<std::int64_t>(i) * n;
    float* out = scores.Data();
    for (int j = 0; j < n; ++j) {
      out[j] += vi * std::tanh(row[j] + qi);
    }
  }
}

/// glimpse = contexts · attnᵀ, row-dot form of the allocating path.
void GlimpseInto(const Tensor& contexts, const Tensor& attn, Tensor& glimpse) {
  const int d = contexts.Rows();
  const int n = contexts.Cols();
  for (int i = 0; i < d; ++i) {
    const float* row = contexts.Data() + static_cast<std::int64_t>(i) * n;
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) acc += row[j] * attn.At(0, j);
    glimpse.At(i, 0) = acc;
  }
}

/// q = W·x + b for the (d, B) queries of B lock-stepped graphs: the
/// product keeps MatMul's per-element chain (nn::DecodeProductInto), then
/// adds b — matching Add(MatMul(W, x_g), b) bit for bit in every column.
void QueryInto(const Tensor& w, const Tensor& wt, const Tensor& x,
               const Tensor& b, int batch, Tensor& q) {
  const int d = q.Rows();
  float* __restrict qd = q.Data();
  const float* __restrict bd = b.Data();
  DecodeProductInto(w.Data(), wt.Data(), x.Data(), wt.Rows(), d, batch, qd);
  for (int g = 0; g < batch; ++g) {
    for (int i = 0; i < d; ++i) {
      qd[static_cast<std::int64_t>(i) * batch + g] += bd[i];
    }
  }
}

/// ScoreColumns restricted to the valid columns of the packed batch: for
/// graph g, every valid absolute column j gets
/// scores[j] = v^T tanh(ref[:,j] + q[:,g]); masked entries are untouched.
/// Per computed element the accumulation is i-ascending exactly like
/// ScoreColumns, so every value the masked softmax reads is bit-identical.
void ScoreColumnsMasked(const Tensor& ref, const Tensor& q, const Tensor& v,
                        const std::vector<int>& valid_idx,
                        const std::vector<int>& valid_begin, int batch,
                        Tensor& scores) {
  const int d = ref.Rows();
  const int total = ref.Cols();
  const float* __restrict rd = ref.Data();
  const float* __restrict qd = q.Data();
  const float* __restrict vd = v.Data();
  float* __restrict out = scores.Data();
  for (int g = 0; g < batch; ++g) {
    for (int p = valid_begin[g]; p < valid_begin[g + 1]; ++p) {
      const int j = valid_idx[p];
      const float* col = rd + j;
      float acc_j = 0.0f;
      for (int i = 0; i < d; ++i) {
        acc_j +=
            vd[i] * std::tanh(col[static_cast<std::int64_t>(i) * total] +
                              qd[static_cast<std::int64_t>(i) * batch + g]);
      }
      out[j] = acc_j;
    }
  }
}

/// GlimpseInto restricted to each graph's valid columns: glimpse[i·B+g]
/// accumulates graph g's valid columns in ascending order.  Masked columns
/// carry an attention weight of exactly ±0, whose addition cannot change
/// the accumulated sum, so skipping them leaves the glimpse unchanged.
void GlimpseIntoMasked(const Tensor& contexts, const Tensor& attn,
                       const std::vector<int>& valid_idx,
                       const std::vector<int>& valid_begin, int batch,
                       Tensor& glimpse) {
  const int d = contexts.Rows();
  const int total = contexts.Cols();
  const float* __restrict ad = attn.Data();
  float* __restrict gd = glimpse.Data();
  for (int i = 0; i < d; ++i) {
    const float* row = contexts.Data() + static_cast<std::int64_t>(i) * total;
    float* __restrict grow = gd + static_cast<std::int64_t>(i) * batch;
    for (int g = 0; g < batch; ++g) {
      float acc = 0.0f;
      for (int p = valid_begin[g]; p < valid_begin[g + 1]; ++p) {
        const int j = valid_idx[p];
        acc += row[j] * ad[j];
      }
      grow[g] = acc;
    }
  }
}

}  // namespace

Tensor PointerAttention::PointerLogits(const Tensor& contexts,
                                       const CachedRefs& refs, const Tensor& h,
                                       const std::vector<bool>& valid) const {
  const int n = contexts.Cols();
  const int d = hidden_dim_;

  // Glimpse.
  const Tensor q_g = Add(MatMul(store_.Value(wq_g_name_), h),
                         store_.Value(bg_name_));
  Tensor scores_g(1, n);
  ScoreColumns(refs.glimpse_ref, q_g, store_.Value(vg_name_), scores_g);
  const Tensor attn = MaskedSoftmax(scores_g, valid);
  Tensor glimpse(d, 1);
  GlimpseInto(contexts, attn, glimpse);

  // Pointer.
  const Tensor q_p = Add(MatMul(store_.Value(wq_p_name_), glimpse),
                         store_.Value(bp_name_));
  Tensor u(1, n);
  ScoreColumns(refs.pointer_ref, q_p, store_.Value(vp_name_), u);
  for (int j = 0; j < n; ++j) {
    u.At(0, j) = kLogitClip * std::tanh(u.At(0, j));
  }
  return u;
}

void PointerAttention::Scratch::Reserve(int hidden_dim, int nodes,
                                        int batch) {
  q.Resize(hidden_dim, batch);
  scores.Resize(1, nodes * batch);
  attn.Resize(1, nodes * batch);
  glimpse.Resize(hidden_dim, batch);
  valid_idx.reserve(static_cast<std::size_t>(nodes) * batch);
  valid_begin.reserve(static_cast<std::size_t>(batch) + 1);
}

void PointerAttention::PointerLogitsInto(
    const Tensor& contexts, const CachedRefs& refs, const Tensor& h,
    const std::vector<std::uint8_t>& valid, int nodes, int batch,
    Scratch& scratch, Tensor& logits) const {
  const int d = hidden_dim_;
  const int total = nodes * batch;
  if (nodes <= 0 || batch <= 0 || contexts.Cols() != total ||
      contexts.Rows() != d || h.Rows() != d || h.Cols() != batch ||
      logits.Rows() != 1 || logits.Cols() != total ||
      scratch.q.Rows() != d || scratch.q.Cols() != batch ||
      scratch.scores.Cols() != total || scratch.attn.Cols() != total ||
      scratch.glimpse.Rows() != d || scratch.glimpse.Cols() != batch ||
      refs.wq_g_t.Rows() != d || refs.wq_g_t.Cols() != d ||
      refs.wq_p_t.Rows() != d || refs.wq_p_t.Cols() != d ||
      static_cast<int>(valid.size()) != total) {
    throw std::invalid_argument(
        "PointerAttention::PointerLogitsInto: bad buffer shape");
  }
  scratch.valid_idx.clear();
  scratch.valid_begin.clear();
  for (int g = 0; g < batch; ++g) {
    scratch.valid_begin.push_back(static_cast<int>(scratch.valid_idx.size()));
    const int c0 = g * nodes;
    for (int j = 0; j < nodes; ++j) {
      if (valid[c0 + j]) scratch.valid_idx.push_back(c0 + j);
    }
  }
  scratch.valid_begin.push_back(static_cast<int>(scratch.valid_idx.size()));

  // Glimpse.
  QueryInto(store_.Value(wq_g_name_), refs.wq_g_t, h, store_.Value(bg_name_),
            batch, scratch.q);
  ScoreColumnsMasked(refs.glimpse_ref, scratch.q, store_.Value(vg_name_),
                     scratch.valid_idx, scratch.valid_begin, batch,
                     scratch.scores);
  for (int g = 0; g < batch; ++g) {
    MaskedSoftmaxSliceInto(scratch.scores, valid, g * nodes, nodes,
                           scratch.attn);
  }
  GlimpseIntoMasked(contexts, scratch.attn, scratch.valid_idx,
                    scratch.valid_begin, batch, scratch.glimpse);

  // Pointer.
  QueryInto(store_.Value(wq_p_name_), refs.wq_p_t, scratch.glimpse,
            store_.Value(bp_name_), batch, scratch.q);
  ScoreColumnsMasked(refs.pointer_ref, scratch.q, store_.Value(vp_name_),
                     scratch.valid_idx, scratch.valid_begin, batch, logits);
  float* u = logits.Data();
  for (const int j : scratch.valid_idx) {
    u[j] = kLogitClip * std::tanh(u[j]);
  }
}

void PointerAttention::BindToTape(Tape& tape) {
  if (bound_tape_id_ == tape.Id()) return;
  bound_tape_id_ = tape.Id();
  const auto bind = [&](const std::string& name) {
    return tape.Param(store_.Value(name), &store_.Grad(name));
  };
  wref_g_ = bind(wref_g_name_);
  wq_g_ = bind(wq_g_name_);
  bg_ = bind(bg_name_);
  vg_ = bind(vg_name_);
  wref_p_ = bind(wref_p_name_);
  wq_p_ = bind(wq_p_name_);
  bp_ = bind(bp_name_);
  vp_ = bind(vp_name_);
}

PointerAttention::TapeRefs PointerAttention::Precompute(Tape& tape,
                                                        Ref contexts) {
  BindToTape(tape);
  TapeRefs refs;
  refs.contexts = contexts;
  refs.glimpse_ref = tape.MatMul(wref_g_, contexts);
  refs.pointer_ref = tape.MatMul(wref_p_, contexts);
  return refs;
}

Ref PointerAttention::PointerLogits(Tape& tape, const TapeRefs& refs, Ref h,
                                    const std::vector<bool>& valid) {
  BindToTape(tape);
  // Glimpse.
  const Ref q_g =
      tape.AddBroadcastCol(tape.MatMul(wq_g_, h), bg_);  // (d,1)
  const Ref act_g = tape.Tanh(tape.AddBroadcastCol(refs.glimpse_ref, q_g));
  const Ref scores_g = tape.MatMul(tape.Transpose(vg_), act_g);
  const Ref attn = tape.MaskedSoftmax(scores_g, valid);
  const Ref glimpse = tape.MatMul(refs.contexts, tape.Transpose(attn));

  // Pointer.
  const Ref q_p = tape.AddBroadcastCol(tape.MatMul(wq_p_, glimpse), bp_);
  const Ref act_p = tape.Tanh(tape.AddBroadcastCol(refs.pointer_ref, q_p));
  const Ref u = tape.MatMul(tape.Transpose(vp_), act_p);
  return tape.Scale(tape.Tanh(u), kLogitClip);
}

}  // namespace respect::nn
