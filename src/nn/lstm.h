// LSTM cell with twin execution paths: a tape-recorded path for training
// (gradients flow through BPTT) and a value-only path for inference.
//
// Standard formulation, gate order [i f g o]:
//   z = Wx·x + Wh·h + b;  i,f,o = σ(z…);  g = tanh(z…)
//   c' = f ⊙ c + i ⊙ g;   h' = o ⊙ tanh(c')
#pragma once

#include <random>
#include <string>

#include "nn/params.h"
#include "nn/tape.h"
#include "nn/tensor.h"

namespace respect::nn {

/// One LSTM cell; weights live in a ParamStore under `prefix`.
class LstmCell {
 public:
  /// Creates (or rebinds to) parameters `prefix`.{Wx,Wh,b} in `store`.
  LstmCell(ParamStore& store, std::string prefix, int input_dim,
           int hidden_dim, std::mt19937_64& rng);

  [[nodiscard]] int HiddenDim() const { return hidden_dim_; }
  [[nodiscard]] int InputDim() const { return input_dim_; }

  /// Value-only state (inference path) for B lock-stepped sequences.
  /// Row-major (hidden, B): h.Data()[k*B + g] is element k of sequence g's
  /// hidden state, so the per-k inner loop over the batch is contiguous.
  struct State {
    Tensor h;  // (hidden, B)
    Tensor c;  // (hidden, B)
  };

  /// Tape-recorded state (training path).
  struct TapeState {
    Ref h = -1;
    Ref c = -1;
  };

  /// B = 1 initial states.
  [[nodiscard]] State InitialState() const;
  [[nodiscard]] TapeState InitialState(Tape& tape) const;

  /// One B = 1 step without gradient recording.
  [[nodiscard]] State Step(const Tensor& x, const State& prev) const;

  /// Fused allocation-free step for the inference hot path: advances
  /// `batch` independent sequences one step, updating `state.h` /
  /// `state.c` ((hidden, batch)) in place.  The input contribution Wx·x
  /// must be precomputed — `zx` is a (4·hidden, *) matrix and column
  /// `zx_cols[g]` holds Wx·x for sequence g's step (columns may repeat, e.g.
  /// every sequence pointing at a shared decoder-start column), so callers
  /// hoist the input projection into one GEMM and each step pays only Wh·h.
  /// That product is nn::DecodeProductInto: at batch 1 it sweeps `wh_t`,
  /// the (hidden, 4·hidden) k-major panel Whᵀ from RecurrentPanelInto; at
  /// batch >= 2 it is a (4d, d)×(d, B) row-pair GEMM over Wh itself.
  /// `gates` is a caller-owned (4·hidden, batch) scratch.
  ///
  /// Column g is bit-identical to Step() on sequence g alone: per output
  /// element the k-accumulation runs in MatMul's ascending order on both
  /// branches, and the gate math stores the same intermediates.
  void StepInto(const Tensor& zx, const int* zx_cols, int batch,
                const Tensor& wh_t, Tensor& gates, State& state) const;

  /// Writes the k-major recurrent panel Whᵀ ((hidden, 4·hidden)) for
  /// StepInto into `wh_t` (grow-only storage).  The panel is a snapshot of
  /// the store's current Wh: callers rebuild it for every sequence rather
  /// than cache it, so ParamStore::Load and weight swaps stay safe.
  void RecurrentPanelInto(Tensor& wh_t) const;

  /// The (4·hidden, input) input weight Wx, for hoisting Wx·X out of step
  /// loops (see StepInto).
  [[nodiscard]] const Tensor& InputWeight() const;

  /// One recorded step; `x` must already be a tape node of shape
  /// (input_dim, 1).  Parameters are bound into the tape on first use.
  [[nodiscard]] TapeState Step(Tape& tape, Ref x, const TapeState& prev);

  /// Binds this cell's parameters into a fresh tape (one Param leaf per
  /// tensor per tape); called automatically by Step.
  void BindToTape(Tape& tape);

 private:
  ParamStore& store_;
  std::string prefix_;
  // Full parameter names, precomputed so the hot path never concatenates
  // strings (lookups stay allocation-free and Load()-safe — the store's
  // tensors are re-looked-up per call, never cached by address).
  std::string wx_name_, wh_name_, b_name_;
  int input_dim_ = 0;
  int hidden_dim_ = 0;

  // Per-tape parameter leaf cache (valid for the tape last bound).
  std::uint64_t bound_tape_id_ = 0;
  Ref wx_ = -1, wh_ = -1, b_ = -1;
};

}  // namespace respect::nn
