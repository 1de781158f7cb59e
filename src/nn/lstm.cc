#include "nn/lstm.h"

#include <cmath>
#include <stdexcept>

#include "nn/axpy.h"

namespace respect::nn {

LstmCell::LstmCell(ParamStore& store, std::string prefix, int input_dim,
                   int hidden_dim, std::mt19937_64& rng)
    : store_(store),
      prefix_(std::move(prefix)),
      wx_name_(prefix_ + ".Wx"),
      wh_name_(prefix_ + ".Wh"),
      b_name_(prefix_ + ".b"),
      input_dim_(input_dim),
      hidden_dim_(hidden_dim) {
  store_.GetOrCreate(wx_name_, 4 * hidden_dim_, input_dim_, rng);
  store_.GetOrCreate(wh_name_, 4 * hidden_dim_, hidden_dim_, rng);
  store_.GetOrCreate(b_name_, 4 * hidden_dim_, 1, rng);
  // Bias convention: forget gate starts open (+1) so early training does not
  // wash out the recurrent state.
  Tensor& b = store_.Value(b_name_);
  for (int i = hidden_dim_; i < 2 * hidden_dim_; ++i) b.At(i, 0) = 1.0f;
}

const Tensor& LstmCell::InputWeight() const { return store_.Value(wx_name_); }

LstmCell::State LstmCell::InitialState() const {
  return State{Tensor::Zeros(hidden_dim_, 1), Tensor::Zeros(hidden_dim_, 1)};
}

LstmCell::TapeState LstmCell::InitialState(Tape& tape) const {
  return TapeState{tape.Constant(Tensor::Zeros(hidden_dim_, 1)),
                   tape.Constant(Tensor::Zeros(hidden_dim_, 1))};
}

LstmCell::State LstmCell::Step(const Tensor& x, const State& prev) const {
  if (x.Rows() != input_dim_ || x.Cols() != 1) {
    throw std::invalid_argument("LstmCell::Step: bad input shape");
  }
  const Tensor z = Add(Add(MatMul(store_.Value(wx_name_), x),
                           MatMul(store_.Value(wh_name_), prev.h)),
                       store_.Value(b_name_));
  const int d = hidden_dim_;
  const Tensor i = Sigmoid(SliceRows(z, 0, d));
  const Tensor f = Sigmoid(SliceRows(z, d, 2 * d));
  const Tensor g = Tanh(SliceRows(z, 2 * d, 3 * d));
  const Tensor o = Sigmoid(SliceRows(z, 3 * d, 4 * d));
  State next;
  next.c = Add(Mul(f, prev.c), Mul(i, g));
  next.h = Mul(o, Tanh(next.c));
  return next;
}

void LstmCell::RecurrentPanelInto(Tensor& wh_t) const {
  wh_t.Resize(hidden_dim_, 4 * hidden_dim_);
  TransposeInto(store_.Value(wh_name_), wh_t);
}

void LstmCell::StepInto(const Tensor& zx, int zx_col, const Tensor& wh_t,
                        Tensor& gates, State& state) const {
  const int d = hidden_dim_;
  if (zx.Rows() != 4 * d || zx_col < 0 || zx_col >= zx.Cols()) {
    throw std::invalid_argument("LstmCell::StepInto: bad zx column");
  }
  if (wh_t.Rows() != d || wh_t.Cols() != 4 * d || gates.Rows() != 4 * d ||
      gates.Cols() != 1 || state.h.Rows() != d || state.h.Cols() != 1 ||
      state.c.Rows() != d || state.c.Cols() != 1) {
    throw std::invalid_argument("LstmCell::StepInto: bad buffer shape");
  }
  const Tensor& b = store_.Value(b_name_);
  const float* __restrict zxd = zx.Data();
  const float* __restrict bd = b.Data();
  float* __restrict zd = gates.Data();
  const int zx_cols = zx.Cols();

  // z = (Wx·x + Wh·h) + b.  Wh·h sweeps the k-major panel (nn/axpy.h): each
  // output keeps Step()'s k-ascending addition chain, so the sum matches
  // MatMul bit for bit, while the 4d outputs advance as one vector.
  KMajorGemv(wh_t.Data(), state.h.Data(), d, zd, 4 * d);
  for (int i = 0; i < 4 * d; ++i) {
    zd[i] = (zxd[std::int64_t{i} * zx_cols + zx_col] + zd[i]) + bd[i];
  }

  // Gate order [i f g o]; products are stored before the sum so the
  // arithmetic matches the unfused Mul/Add chain exactly.
  float* hc = state.h.Data();
  float* __restrict cc = state.c.Data();
  for (int r = 0; r < d; ++r) {
    const float gi = 1.0f / (1.0f + std::exp(-zd[r]));
    const float gf = 1.0f / (1.0f + std::exp(-zd[d + r]));
    const float gg = std::tanh(zd[2 * d + r]);
    const float go = 1.0f / (1.0f + std::exp(-zd[3 * d + r]));
    const float fc = gf * cc[r];
    const float ig = gi * gg;
    const float c_next = fc + ig;
    cc[r] = c_next;
    hc[r] = go * std::tanh(c_next);
  }
}

void LstmCell::StepBatchInto(const Tensor& zx, const int* zx_cols, int batch,
                             Tensor& gates, BatchState& state) const {
  const int d = hidden_dim_;
  if (batch <= 0 || zx.Rows() != 4 * d) {
    throw std::invalid_argument("LstmCell::StepBatchInto: bad zx shape");
  }
  for (int g = 0; g < batch; ++g) {
    if (zx_cols[g] < 0 || zx_cols[g] >= zx.Cols()) {
      throw std::invalid_argument("LstmCell::StepBatchInto: bad zx column");
    }
  }
  if (gates.Rows() != 4 * d || gates.Cols() != batch ||
      state.h.Rows() != d || state.h.Cols() != batch ||
      state.c.Rows() != d || state.c.Cols() != batch) {
    throw std::invalid_argument("LstmCell::StepBatchInto: bad buffer shape");
  }
  const Tensor& wh = store_.Value(wh_name_);
  const Tensor& b = store_.Value(b_name_);
  const float* __restrict zxd = zx.Data();
  const float* __restrict whd = wh.Data();
  const float* __restrict bd = b.Data();
  // No __restrict on h: the state-update loop below writes the same
  // storage through hc, and two restrict-qualified views of one object in
  // one scope would be undefined behavior.
  const float* h = state.h.Data();
  float* __restrict zd = gates.Data();
  const int zxn = zx.Cols();

  // z[:, g] = (Wx·x_g + Wh·h_g) + b as a (4d, d)×(d, B) GEMM.  For each
  // output element the k-accumulation is ascending — exactly StepInto's
  // chain per column — while the inner g loop runs over contiguous storage
  // (h is (d, B) row-major), which is where the batch speedup comes from:
  // one weight load feeds B multiply-adds.  Output rows go two at a time
  // over fixed groups of four k values (nn/axpy.h): any partition of the
  // ascending k sequence into ordered sweeps leaves each element's
  // left-associated addition chain — and therefore the result bits —
  // unchanged, while the row pair gives the hardware two independent
  // accumulation chains instead of one latency-bound chain.
  for (int i = 0; i < 4 * d; i += 2) {
    const float* __restrict wra = whd + std::int64_t{i} * d;
    const float* __restrict wrb = wra + d;
    float* __restrict acca = zd + std::int64_t{i} * batch;
    float* __restrict accb = acca + batch;
    for (int g = 0; g < batch; ++g) acca[g] = 0.0f;
    for (int g = 0; g < batch; ++g) accb[g] = 0.0f;
    int k = 0;
    for (; k + 4 <= d; k += 4) {
      const float* hk = h + std::int64_t{k} * batch;
      FusedAxpy4x2(hk, hk + batch, hk + 2 * batch, hk + 3 * batch, wra[k],
                   wra[k + 1], wra[k + 2], wra[k + 3], wrb[k], wrb[k + 1],
                   wrb[k + 2], wrb[k + 3], acca, accb, batch);
    }
    for (; k < d; ++k) {
      const float* hk = h + std::int64_t{k} * batch;
      Axpy(hk, wra[k], acca, batch);
      Axpy(hk, wrb[k], accb, batch);
    }
    const float bia = bd[i];
    const float bib = bd[i + 1];
    const float* __restrict zxra = zxd + std::int64_t{i} * zxn;
    const float* __restrict zxrb = zxra + zxn;
    for (int g = 0; g < batch; ++g) {
      acca[g] = (zxra[zx_cols[g]] + acca[g]) + bia;
      accb[g] = (zxrb[zx_cols[g]] + accb[g]) + bib;
    }
  }

  // Same gate math as StepInto, per (r, g); the g loop is contiguous in
  // every buffer.
  float* hc = state.h.Data();
  float* __restrict cc = state.c.Data();
  for (int r = 0; r < d; ++r) {
    const float* __restrict zi = zd + std::int64_t{r} * batch;
    const float* __restrict zf = zd + std::int64_t{d + r} * batch;
    const float* __restrict zg = zd + std::int64_t{2 * d + r} * batch;
    const float* __restrict zo = zd + std::int64_t{3 * d + r} * batch;
    float* hrow = hc + std::int64_t{r} * batch;
    float* __restrict crow = cc + std::int64_t{r} * batch;
    for (int g = 0; g < batch; ++g) {
      const float gi = 1.0f / (1.0f + std::exp(-zi[g]));
      const float gf = 1.0f / (1.0f + std::exp(-zf[g]));
      const float gg = std::tanh(zg[g]);
      const float go = 1.0f / (1.0f + std::exp(-zo[g]));
      const float fc = gf * crow[g];
      const float ig = gi * gg;
      const float c_next = fc + ig;
      crow[g] = c_next;
      hrow[g] = go * std::tanh(c_next);
    }
  }
}

void LstmCell::BindToTape(Tape& tape) {
  if (bound_tape_id_ == tape.Id()) return;
  bound_tape_id_ = tape.Id();
  wx_ = tape.Param(store_.Value(wx_name_), &store_.Grad(wx_name_));
  wh_ = tape.Param(store_.Value(wh_name_), &store_.Grad(wh_name_));
  b_ = tape.Param(store_.Value(b_name_), &store_.Grad(b_name_));
}

LstmCell::TapeState LstmCell::Step(Tape& tape, Ref x, const TapeState& prev) {
  BindToTape(tape);
  const Ref z = tape.AddBroadcastCol(
      tape.Add(tape.MatMul(wx_, x), tape.MatMul(wh_, prev.h)), b_);
  const int d = hidden_dim_;
  const Ref i = tape.Sigmoid(tape.SliceRows(z, 0, d));
  const Ref f = tape.Sigmoid(tape.SliceRows(z, d, 2 * d));
  const Ref g = tape.Tanh(tape.SliceRows(z, 2 * d, 3 * d));
  const Ref o = tape.Sigmoid(tape.SliceRows(z, 3 * d, 4 * d));
  TapeState next;
  next.c = tape.Add(tape.Mul(f, prev.c), tape.Mul(i, g));
  next.h = tape.Mul(o, tape.Tanh(next.c));
  return next;
}

}  // namespace respect::nn
