// Tensor value-type tests: shapes, ops, error paths, Xavier statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

#include "nn/tensor.h"

namespace respect::nn {
namespace {

Tensor Fill(int r, int c, std::initializer_list<float> values) {
  Tensor t(r, c);
  auto it = values.begin();
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) t.At(i, j) = *it++;
  }
  return t;
}

TEST(TensorTest, MatMulKnownValues) {
  const Tensor a = Fill(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b = Fill(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

TEST(TensorTest, MatMulShapeMismatchThrows) {
  EXPECT_THROW(MatMul(Tensor(2, 3), Tensor(2, 3)), std::invalid_argument);
}

TEST(TensorTest, AddSubMulElementwise) {
  const Tensor a = Fill(1, 3, {1, 2, 3});
  const Tensor b = Fill(1, 3, {10, 20, 30});
  EXPECT_FLOAT_EQ(Add(a, b).At(0, 2), 33);
  EXPECT_FLOAT_EQ(Sub(b, a).At(0, 1), 18);
  EXPECT_FLOAT_EQ(Mul(a, b).At(0, 0), 10);
  EXPECT_THROW(Add(a, Tensor(2, 3)), std::invalid_argument);
}

TEST(TensorTest, ActivationRanges) {
  const Tensor x = Fill(1, 3, {-100, 0, 100});
  const Tensor s = Sigmoid(x);
  EXPECT_NEAR(s.At(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.At(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(s.At(0, 2), 1.0f, 1e-6f);
  const Tensor t = Tanh(x);
  EXPECT_NEAR(t.At(0, 0), -1.0f, 1e-6f);
  EXPECT_NEAR(t.At(0, 2), 1.0f, 1e-6f);
}

TEST(TensorTest, BroadcastColumn) {
  const Tensor m = Fill(2, 2, {1, 2, 3, 4});
  const Tensor col = Fill(2, 1, {10, 20});
  const Tensor out = AddBroadcastCol(m, col);
  EXPECT_FLOAT_EQ(out.At(0, 1), 12);
  EXPECT_FLOAT_EQ(out.At(1, 0), 23);
  EXPECT_THROW(AddBroadcastCol(m, Tensor(3, 1)), std::invalid_argument);
}

TEST(TensorTest, ConcatAndSlices) {
  const Tensor a = Fill(2, 1, {1, 2});
  const Tensor b = Fill(2, 1, {3, 4});
  const Tensor cat = ConcatCols({a, b});
  EXPECT_EQ(cat.Cols(), 2);
  EXPECT_FLOAT_EQ(cat.At(1, 1), 4);
  const Tensor col = SliceCols(cat, 1, 2);
  EXPECT_FLOAT_EQ(col.At(0, 0), 3);
  const Tensor row = SliceRows(cat, 0, 1);
  EXPECT_FLOAT_EQ(row.At(0, 1), 3);
  EXPECT_THROW(SliceRows(cat, 1, 1), std::invalid_argument);
  EXPECT_THROW(ConcatCols({}), std::invalid_argument);
}

TEST(TensorTest, TransposeRoundTrip) {
  const Tensor a = Fill(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor t = Transpose(a);
  EXPECT_EQ(t.Rows(), 3);
  EXPECT_FLOAT_EQ(t.At(2, 1), 6);
  const Tensor back = Transpose(t);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(back.At(i, j), a.At(i, j));
  }
}

TEST(TensorTest, MaskedSoftmaxNormalizesOverValid) {
  const Tensor logits = Fill(1, 4, {1, 100, 1, 1});
  const std::vector<bool> valid{true, false, true, true};
  const Tensor p = MaskedSoftmax(logits, valid);
  EXPECT_FLOAT_EQ(p.At(0, 1), 0.0f);  // masked despite huge logit
  float sum = 0;
  for (int j = 0; j < 4; ++j) sum += p.At(0, j);
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_NEAR(p.At(0, 0), 1.0f / 3, 1e-6f);
}

TEST(TensorTest, MaskedSoftmaxAllMaskedThrows) {
  EXPECT_THROW(MaskedSoftmax(Tensor(1, 2), {false, false}),
               std::invalid_argument);
}

TEST(TensorTest, XavierBoundsAndSpread) {
  std::mt19937_64 rng(1);
  const Tensor t = Tensor::Xavier(50, 50, rng);
  const float bound = std::sqrt(6.0f / 100.0f);
  float min = 1e9f, max = -1e9f;
  for (std::int64_t i = 0; i < t.Size(); ++i) {
    min = std::min(min, t.Data()[i]);
    max = std::max(max, t.Data()[i]);
  }
  EXPECT_GE(min, -bound);
  EXPECT_LE(max, bound);
  EXPECT_LT(min, 0.0f);  // actually spreads
  EXPECT_GT(max, 0.0f);
}

TEST(TensorTest, IntoVariantsMatchAllocatingOps) {
  // The destination-passing kernels must be bit-identical to their
  // allocating counterparts (the inference path depends on it).
  std::mt19937_64 rng(7);
  const Tensor a = Tensor::Xavier(5, 7, rng);
  const Tensor b = Tensor::Xavier(7, 4, rng);
  const Tensor c = Tensor::Xavier(5, 7, rng);

  Tensor mm(5, 4);
  MatMulInto(a, b, mm);
  const Tensor mm_ref = MatMul(a, b);
  for (std::int64_t i = 0; i < mm.Size(); ++i) {
    EXPECT_EQ(mm.Data()[i], mm_ref.Data()[i]);
  }

  Tensor sum(5, 7), th(5, 7), sg(5, 7);
  AddInto(a, c, sum);
  TanhInto(a, th);
  SigmoidInto(a, sg);
  const Tensor sum_ref = Add(a, c);
  const Tensor th_ref = Tanh(a);
  const Tensor sg_ref = Sigmoid(a);
  for (std::int64_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(sum.Data()[i], sum_ref.Data()[i]);
    EXPECT_EQ(th.Data()[i], th_ref.Data()[i]);
    EXPECT_EQ(sg.Data()[i], sg_ref.Data()[i]);
  }

  // The elementwise kernels allow in-place operation (out == &a).
  Tensor th_inplace = a;
  TanhInto(th_inplace, th_inplace);
  Tensor sg_inplace = a;
  SigmoidInto(sg_inplace, sg_inplace);
  for (std::int64_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(th_inplace.Data()[i], th_ref.Data()[i]);
    EXPECT_EQ(sg_inplace.Data()[i], sg_ref.Data()[i]);
  }

  // Shape mismatches throw before touching out.
  Tensor bad(4, 4);
  EXPECT_THROW(MatMulInto(a, b, bad), std::invalid_argument);
  EXPECT_THROW(AddInto(a, c, bad), std::invalid_argument);
  EXPECT_THROW(TanhInto(a, bad), std::invalid_argument);

  // AddBroadcastColInPlace matches AddBroadcastCol.
  const Tensor col = Tensor::Xavier(5, 1, rng);
  Tensor bc = a;
  AddBroadcastColInPlace(bc, col);
  const Tensor bc_ref = AddBroadcastCol(a, col);
  for (std::int64_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(bc.Data()[i], bc_ref.Data()[i]);
  }
}

TEST(TensorTest, MaskedSoftmaxSliceIntoMatchesBoolMaskVariant) {
  // Two 4-wide slices packed side by side; each must equal MaskedSoftmax on
  // its own slice, and neither may touch the other's columns.
  const Tensor logits =
      Fill(1, 8, {0.5f, -1.0f, 2.0f, 0.0f, 1.5f, 0.25f, -3.0f, 4.0f});
  const std::vector<std::uint8_t> mask_u8 = {1, 0, 1, 1, 0, 1, 1, 0};
  Tensor out(1, 8);
  out.Fill(9.0f);  // stale contents must not leak through
  MaskedSoftmaxSliceInto(logits, mask_u8, 0, 4, out);
  for (int j = 4; j < 8; ++j) EXPECT_EQ(out.At(0, j), 9.0f);
  MaskedSoftmaxSliceInto(logits, mask_u8, 4, 4, out);
  for (const int c0 : {0, 4}) {
    std::vector<bool> mask_bool(4);
    for (int j = 0; j < 4; ++j) mask_bool[j] = mask_u8[c0 + j] != 0;
    const Tensor ref = MaskedSoftmax(SliceCols(logits, c0, c0 + 4), mask_bool);
    for (int j = 0; j < 4; ++j) EXPECT_EQ(out.At(0, c0 + j), ref.At(0, j));
  }
  EXPECT_EQ(out.At(0, 1), 0.0f);

  const std::vector<std::uint8_t> none(8, 0);
  EXPECT_THROW(MaskedSoftmaxSliceInto(logits, none, 0, 4, out),
               std::invalid_argument);
}

TEST(TensorTest, ResizeReusesStorageGrowOnly) {
  Tensor t(4, 8);
  const float* data = t.Data();
  t.Resize(2, 3);  // shrink: same storage
  EXPECT_EQ(t.Rows(), 2);
  EXPECT_EQ(t.Cols(), 3);
  EXPECT_EQ(t.Data(), data);
  t.Resize(4, 8);  // back to the high-water mark: still no reallocation
  EXPECT_EQ(t.Data(), data);
}

TEST(TensorTest, AccumulateAddsInPlace) {
  Tensor a = Fill(1, 2, {1, 2});
  a.Accumulate(Fill(1, 2, {10, 20}));
  EXPECT_FLOAT_EQ(a.At(0, 1), 22);
  EXPECT_THROW(a.Accumulate(Tensor(2, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace respect::nn
