// Numerical-gradient verification of every autodiff op and of composite
// networks (LSTM step, glimpse+pointer attention).  The REINFORCE trainer is
// only as correct as these adjoints.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>

#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "tests/support/reference_decode.h"

namespace respect::nn {
namespace {

/// Checks d(scalar f)/d(param) against central differences at every entry.
void CheckGradient(
    const std::function<float(Tape&, Ref)>& f, Tensor param,
    float tolerance = 2e-2f, float epsilon = 1e-3f) {
  Tensor grad_sink = Tensor::Zeros(param.Rows(), param.Cols());
  Tape tape;
  const Ref p = tape.Param(param, &grad_sink);
  const float base = f(tape, p);
  (void)base;

  for (int i = 0; i < param.Rows(); ++i) {
    for (int j = 0; j < param.Cols(); ++j) {
      Tensor plus = param;
      plus.At(i, j) += epsilon;
      Tensor minus = param;
      minus.At(i, j) -= epsilon;

      Tape tp, tm;
      const float fp = f(tp, tp.Constant(plus));
      const float fm = f(tm, tm.Constant(minus));
      const float numeric = (fp - fm) / (2 * epsilon);
      const float analytic = grad_sink.At(i, j);
      EXPECT_NEAR(analytic, numeric,
                  tolerance * std::max(1.0f, std::abs(numeric)))
          << "entry (" << i << "," << j << ")";
    }
  }
}

/// Runs forward f and backward once, returning the scalar.
float RunScalar(Tape& tape, Ref out) {
  const float v = tape.Value(out).At(0, 0);
  tape.Backward(out);
  return v;
}

Tensor RandomTensor(int r, int c, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return Tensor::Xavier(r, c, rng);
}

TEST(AutogradTest, MatMulGradient) {
  const Tensor b = RandomTensor(3, 2, 7);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(t, t.Sum(t.MatMul(p, t.Constant(b))));
      },
      RandomTensor(4, 3, 1));
}

TEST(AutogradTest, MatMulRightGradient) {
  const Tensor a = RandomTensor(4, 3, 9);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(t, t.Sum(t.MatMul(t.Constant(a), p)));
      },
      RandomTensor(3, 2, 2));
}

TEST(AutogradTest, AddGradient) {
  const Tensor b = RandomTensor(3, 3, 11);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(t, t.Sum(t.Add(p, t.Constant(b))));
      },
      RandomTensor(3, 3, 3));
}

TEST(AutogradTest, MulGradient) {
  const Tensor b = RandomTensor(3, 3, 13);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(t, t.Sum(t.Mul(p, t.Constant(b))));
      },
      RandomTensor(3, 3, 4));
}

TEST(AutogradTest, ScaleGradient) {
  CheckGradient(
      [&](Tape& t, Ref p) { return RunScalar(t, t.Sum(t.Scale(p, -2.5f))); },
      RandomTensor(2, 5, 5));
}

TEST(AutogradTest, TanhGradient) {
  CheckGradient(
      [&](Tape& t, Ref p) { return RunScalar(t, t.Sum(t.Tanh(p))); },
      RandomTensor(3, 4, 6));
}

TEST(AutogradTest, SigmoidGradient) {
  CheckGradient(
      [&](Tape& t, Ref p) { return RunScalar(t, t.Sum(t.Sigmoid(p))); },
      RandomTensor(3, 4, 8));
}

TEST(AutogradTest, AddBroadcastColGradientOnColumn) {
  const Tensor m = RandomTensor(3, 5, 15);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(
            t, t.Sum(t.Tanh(t.AddBroadcastCol(t.Constant(m), p))));
      },
      RandomTensor(3, 1, 10));
}

TEST(AutogradTest, AddBroadcastColGradientOnMatrix) {
  const Tensor col = RandomTensor(3, 1, 17);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(
            t, t.Sum(t.Tanh(t.AddBroadcastCol(p, t.Constant(col)))));
      },
      RandomTensor(3, 5, 12));
}

TEST(AutogradTest, SliceAndConcatGradient) {
  CheckGradient(
      [&](Tape& t, Ref p) {
        const Ref a = t.SliceRows(p, 0, 2);
        const Ref b = t.SliceRows(p, 2, 4);
        return RunScalar(t, t.Sum(t.Mul(a, b)));
      },
      RandomTensor(4, 3, 14));
}

TEST(AutogradTest, SliceColsGradient) {
  CheckGradient(
      [&](Tape& t, Ref p) {
        const Ref a = t.SliceCols(p, 0, 2);
        const Ref b = t.SliceCols(p, 2, 4);
        return RunScalar(t, t.Sum(t.Mul(a, t.Tanh(b))));
      },
      RandomTensor(3, 4, 16));
}

TEST(AutogradTest, TransposeGradient) {
  const Tensor b = RandomTensor(2, 3, 19);
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(t, t.Sum(t.MatMul(t.Transpose(p), t.Constant(b))));
      },
      RandomTensor(2, 4, 18));
}

TEST(AutogradTest, MaskedSoftmaxGradient) {
  const std::vector<bool> valid{true, false, true, true, false};
  const Tensor w = RandomTensor(1, 5, 21);
  CheckGradient(
      [&](Tape& t, Ref p) {
        const Ref soft = t.MaskedSoftmax(p, valid);
        return RunScalar(t, t.Sum(t.Mul(soft, t.Constant(w))));
      },
      RandomTensor(1, 5, 20));
}

TEST(AutogradTest, PickLogSoftmaxGradient) {
  const std::vector<bool> valid{true, true, false, true};
  CheckGradient(
      [&](Tape& t, Ref p) {
        return RunScalar(t, t.PickLogSoftmax(p, valid, 1));
      },
      RandomTensor(1, 4, 22));
}

TEST(AutogradTest, LstmStepGradientThroughAllWeights) {
  std::mt19937_64 rng(23);
  ParamStore store;
  LstmCell cell(store, "cell", 3, 4, rng);
  const Tensor x = RandomTensor(3, 1, 24);

  // Numerically check d(sum h)/d(Wx) entry by entry.
  Tensor& wx = store.Value("cell.Wx");
  const auto forward = [&]() {
    Tape tape;
    auto s0 = cell.InitialState(tape);
    auto s1 = cell.Step(tape, tape.Constant(x), s0);
    auto s2 = cell.Step(tape, tape.Constant(x), s1);  // two steps: BPTT
    return std::pair<Tape, Ref>(std::move(tape), s2.h);
  };

  {
    auto [tape, h] = forward();
    const Ref loss = tape.Sum(h);
    tape.Backward(loss);
  }
  const Tensor analytic = store.Grad("cell.Wx");

  const float eps = 1e-3f;
  for (int i = 0; i < std::min(4, wx.Rows()); ++i) {
    for (int j = 0; j < wx.Cols(); ++j) {
      const float saved = wx.At(i, j);
      wx.At(i, j) = saved + eps;
      auto [tp, hp] = forward();
      float fp = tp.Value(tp.Sum(hp)).At(0, 0);
      wx.At(i, j) = saved - eps;
      auto [tm, hm] = forward();
      float fm = tm.Value(tm.Sum(hm)).At(0, 0);
      wx.At(i, j) = saved;
      const float numeric = (fp - fm) / (2 * eps);
      EXPECT_NEAR(analytic.At(i, j), numeric,
                  2e-2f * std::max(1.0f, std::abs(numeric)))
          << "Wx(" << i << "," << j << ")";
    }
  }
}

TEST(AutogradTest, AttentionLogitsMatchInferencePath) {
  // The tape path and the value-only path must produce identical logits.
  std::mt19937_64 rng(25);
  ParamStore store;
  PointerAttention attention(store, "attn", 4, rng);
  const Tensor C = RandomTensor(4, 6, 26);
  const Tensor h = RandomTensor(4, 1, 27);
  const std::vector<bool> valid{true, true, true, false, true, true};

  PointerAttention::CachedRefs refs;
  attention.PrecomputeInto(C, refs);
  const Tensor logits_value = rl::PointerLogits(
      store, "attn", C, refs.glimpse_ref, refs.pointer_ref, h, valid, 4);

  Tape tape;
  const Ref c_ref = tape.Constant(C);
  auto tape_refs = attention.Precompute(tape, c_ref);
  const Ref logits_tape =
      attention.PointerLogits(tape, tape_refs, tape.Constant(h), valid);

  for (int j = 0; j < 6; ++j) {
    EXPECT_NEAR(logits_value.At(0, j), tape.Value(logits_tape).At(0, j), 1e-5f);
  }
}

TEST(AutogradTest, BackwardTwiceThrows) {
  Tape tape;
  const Ref c = tape.Constant(Tensor(1, 1, 2.0f));
  const Ref s = tape.Sum(c);
  tape.Backward(s);
  EXPECT_THROW(tape.Backward(s), std::logic_error);
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Tape tape;
  const Ref c = tape.Constant(Tensor(2, 2, 1.0f));
  EXPECT_THROW(tape.Backward(c), std::invalid_argument);
}

}  // namespace
}  // namespace respect::nn
