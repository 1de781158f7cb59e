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

LstmCell::TapeState LstmCell::InitialState(Tape& tape) const {
  return TapeState{tape.Constant(Tensor::Zeros(hidden_dim_, 1)),
                   tape.Constant(Tensor::Zeros(hidden_dim_, 1))};
}

void LstmCell::RecurrentPanelInto(Tensor& wh_t) const {
  wh_t.Resize(hidden_dim_, 4 * hidden_dim_);
  TransposeInto(store_.Value(wh_name_), wh_t);
}

void LstmCell::StepInto(const Tensor& zx, const int* zx_cols, int batch,
                        const Tensor& wh_t, Tensor& gates,
                        State& state) const {
  const int d = hidden_dim_;
  if (batch <= 0 || zx.Rows() != 4 * d) {
    throw std::invalid_argument("LstmCell::StepInto: bad zx shape");
  }
  for (int g = 0; g < batch; ++g) {
    if (zx_cols[g] < 0 || zx_cols[g] >= zx.Cols()) {
      throw std::invalid_argument("LstmCell::StepInto: bad zx column");
    }
  }
  if (wh_t.Rows() != d || wh_t.Cols() != 4 * d || gates.Rows() != 4 * d ||
      gates.Cols() != batch || state.h.Rows() != d ||
      state.h.Cols() != batch || state.c.Rows() != d ||
      state.c.Cols() != batch) {
    throw std::invalid_argument("LstmCell::StepInto: bad buffer shape");
  }
  const float* __restrict zxd = zx.Data();
  const float* __restrict bd = store_.Value(b_name_).Data();
  float* __restrict zd = gates.Data();
  const int zxn = zx.Cols();

  // z[:, g] = (Wx·x_g + Wh·h_g) + b, in the reference step's addition
  // order.
  DecodeProductInto(store_.Value(wh_name_).Data(), wh_t.Data(),
                    state.h.Data(), d, 4 * d, batch, zd);
  for (int g = 0; g < batch; ++g) {
    const float* __restrict zxc = zxd + zx_cols[g];
    for (int i = 0; i < 4 * d; ++i) {
      float& z = zd[std::int64_t{i} * batch + g];
      z = (zxc[std::int64_t{i} * zxn] + z) + bd[i];
    }
  }

  // Gate order [i f g o]: gate block q of element e = r·B + g is
  // zd[q·d·B + e], so one flat sweep covers every (r, g).  Products are
  // stored before the sum so the arithmetic matches the unfused Mul/Add
  // chain exactly.
  const std::int64_t db = std::int64_t{d} * batch;
  float* hc = state.h.Data();
  float* __restrict cc = state.c.Data();
  for (std::int64_t e = 0; e < db; ++e) {
    const float gi = 1.0f / (1.0f + std::exp(-zd[e]));
    const float gf = 1.0f / (1.0f + std::exp(-zd[db + e]));
    const float gg = std::tanh(zd[2 * db + e]);
    const float go = 1.0f / (1.0f + std::exp(-zd[3 * db + e]));
    const float fc = gf * cc[e];
    const float ig = gi * gg;
    const float c_next = fc + ig;
    cc[e] = c_next;
    hc[e] = go * std::tanh(c_next);
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
