#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "nn/axpy.h"

namespace respect::nn {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.SameShape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch (" +
                                std::to_string(a.Rows()) + "x" +
                                std::to_string(a.Cols()) + " vs " +
                                std::to_string(b.Rows()) + "x" +
                                std::to_string(b.Cols()) + ")");
  }
}

void CheckShape(const Tensor& t, int rows, int cols, const char* op) {
  if (t.Rows() != rows || t.Cols() != cols) {
    throw std::invalid_argument(std::string(op) + ": out must be " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols) + ", got " +
                                std::to_string(t.Rows()) + "x" +
                                std::to_string(t.Cols()));
  }
}

/// Shared GEMM kernel; `out` must be zero-filled.  k is blocked so the active
/// slice of b stays cache-resident across rows of a, and the __restrict
/// pointers let the inner j loop vectorize.  Nonzero k-rows are bundled
/// four at a time (nn/axpy.h) so each sweep of the accumulator row pays for
/// four multiply-adds instead of one.  Per output element the additions
/// still happen in ascending-k order with the aik==0 skip, so the result is
/// bit-identical to the naive i/k/j triple loop.
void MatMulKernel(const Tensor& a, const Tensor& b, Tensor& out) {
  const int m = a.Rows();
  const int kk = a.Cols();
  const int n = b.Cols();
  constexpr int kBlock = 64;
  const float* __restrict ad = a.Data();
  const float* __restrict bd = b.Data();
  float* __restrict od = out.Data();
  for (int k0 = 0; k0 < kk; k0 += kBlock) {
    const int k1 = std::min(kk, k0 + kBlock);
    for (int i = 0; i < m; ++i) {
      const float* __restrict arow = ad + std::int64_t{i} * kk;
      float* __restrict orow = od + std::int64_t{i} * n;
      const float* rows[4];
      float coef[4];
      int nb = 0;
      for (int k = k0; k < k1; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        coef[nb] = aik;
        rows[nb] = bd + std::int64_t{k} * n;
        if (++nb == 4) {
          FusedAxpy4(rows[0], rows[1], rows[2], rows[3], coef[0], coef[1],
                     coef[2], coef[3], orow, n);
          nb = 0;
        }
      }
      for (int r = 0; r < nb; ++r) Axpy(rows[r], coef[r], orow, n);
    }
  }
}

void CheckMatMulShapes(const Tensor& a, const Tensor& b) {
  if (a.Cols() != b.Rows()) {
    throw std::invalid_argument("MatMul: inner dimensions " +
                                std::to_string(a.Cols()) + " vs " +
                                std::to_string(b.Rows()));
  }
}

}  // namespace

Tensor Tensor::Xavier(int rows, int cols, std::mt19937_64& rng) {
  Tensor t(rows, cols);
  const float a = std::sqrt(6.0f / static_cast<float>(rows + cols));
  std::uniform_real_distribution<float> dist(-a, a);
  for (std::int64_t i = 0; i < t.Size(); ++i) t.Data()[i] = dist(rng);
  return t;
}

void Tensor::Accumulate(const Tensor& other) {
  CheckSameShape(*this, other, "Tensor::Accumulate");
  for (std::int64_t i = 0; i < Size(); ++i) data_[i] += other.data_[i];
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckMatMulShapes(a, b);
  Tensor out(a.Rows(), b.Cols());
  MatMulKernel(a, b, out);
  return out;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor& out) {
  CheckMatMulShapes(a, b);
  CheckShape(out, a.Rows(), b.Cols(), "MatMulInto");
  out.Fill(0.0f);
  MatMulKernel(a, b, out);
}

void AddInto(const Tensor& a, const Tensor& b, Tensor& out) {
  CheckSameShape(a, b, "AddInto");
  CheckShape(out, a.Rows(), a.Cols(), "AddInto");
  const float* __restrict ad = a.Data();
  const float* __restrict bd = b.Data();
  float* od = out.Data();
  for (std::int64_t i = 0; i < a.Size(); ++i) od[i] = ad[i] + bd[i];
}

void TanhInto(const Tensor& a, Tensor& out) {
  CheckShape(out, a.Rows(), a.Cols(), "TanhInto");
  const float* ad = a.Data();
  float* od = out.Data();
  for (std::int64_t i = 0; i < a.Size(); ++i) od[i] = std::tanh(ad[i]);
}

void SigmoidInto(const Tensor& a, Tensor& out) {
  CheckShape(out, a.Rows(), a.Cols(), "SigmoidInto");
  const float* ad = a.Data();
  float* od = out.Data();
  for (std::int64_t i = 0; i < a.Size(); ++i) {
    od[i] = 1.0f / (1.0f + std::exp(-ad[i]));
  }
}

void AddBroadcastColInPlace(Tensor& a, const Tensor& col) {
  if (col.Rows() != a.Rows() || col.Cols() != 1) {
    throw std::invalid_argument(
        "AddBroadcastColInPlace: col must be (rows, 1)");
  }
  for (int i = 0; i < a.Rows(); ++i) {
    const float c = col.At(i, 0);
    float* row = a.Data() + std::int64_t{i} * a.Cols();
    for (int j = 0; j < a.Cols(); ++j) row[j] += c;
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor out = a;
  out.Accumulate(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor out = a;
  for (std::int64_t i = 0; i < out.Size(); ++i) out.Data()[i] -= b.Data()[i];
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor out = a;
  for (std::int64_t i = 0; i < out.Size(); ++i) out.Data()[i] *= b.Data()[i];
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  for (std::int64_t i = 0; i < out.Size(); ++i) out.Data()[i] *= s;
  return out;
}

Tensor Tanh(const Tensor& a) {
  Tensor out = a;
  for (std::int64_t i = 0; i < out.Size(); ++i) {
    out.Data()[i] = std::tanh(out.Data()[i]);
  }
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out = a;
  for (std::int64_t i = 0; i < out.Size(); ++i) {
    out.Data()[i] = 1.0f / (1.0f + std::exp(-out.Data()[i]));
  }
  return out;
}

Tensor AddBroadcastCol(const Tensor& a, const Tensor& col) {
  if (col.Rows() != a.Rows() || col.Cols() != 1) {
    throw std::invalid_argument("AddBroadcastCol: col must be (rows, 1)");
  }
  Tensor out = a;
  for (int i = 0; i < a.Rows(); ++i) {
    const float c = col.At(i, 0);
    for (int j = 0; j < a.Cols(); ++j) out.At(i, j) += c;
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& cols) {
  if (cols.empty()) {
    throw std::invalid_argument("ConcatCols: empty input");
  }
  const int rows = cols.front().Rows();
  Tensor out(rows, static_cast<int>(cols.size()));
  for (int j = 0; j < static_cast<int>(cols.size()); ++j) {
    if (cols[j].Rows() != rows || cols[j].Cols() != 1) {
      throw std::invalid_argument("ConcatCols: all inputs must be (rows, 1)");
    }
    for (int i = 0; i < rows; ++i) out.At(i, j) = cols[j].At(i, 0);
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int r0, int r1) {
  if (r0 < 0 || r1 > a.Rows() || r0 >= r1) {
    throw std::invalid_argument("SliceRows: bad range");
  }
  Tensor out(r1 - r0, a.Cols());
  for (int i = r0; i < r1; ++i) {
    for (int j = 0; j < a.Cols(); ++j) out.At(i - r0, j) = a.At(i, j);
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int c0, int c1) {
  if (c0 < 0 || c1 > a.Cols() || c0 >= c1) {
    throw std::invalid_argument("SliceCols: bad range");
  }
  Tensor out(a.Rows(), c1 - c0);
  for (int i = 0; i < a.Rows(); ++i) {
    for (int j = c0; j < c1; ++j) out.At(i, j - c0) = a.At(i, j);
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  Tensor out(a.Cols(), a.Rows());
  TransposeInto(a, out);
  return out;
}

void TransposeInto(const Tensor& a, Tensor& out) {
  CheckShape(out, a.Cols(), a.Rows(), "TransposeInto");
  for (int i = 0; i < a.Rows(); ++i) {
    for (int j = 0; j < a.Cols(); ++j) out.At(j, i) = a.At(i, j);
  }
}

Tensor MaskedSoftmax(const Tensor& logits, const std::vector<bool>& valid) {
  if (logits.Rows() != 1 ||
      static_cast<int>(valid.size()) != logits.Cols()) {
    throw std::invalid_argument("MaskedSoftmax: logits must be (1, n) with "
                                "matching mask");
  }
  float max_logit = -std::numeric_limits<float>::infinity();
  for (int j = 0; j < logits.Cols(); ++j) {
    if (valid[j]) max_logit = std::max(max_logit, logits.At(0, j));
  }
  if (!std::isfinite(max_logit)) {
    throw std::invalid_argument("MaskedSoftmax: all entries masked");
  }
  Tensor out(1, logits.Cols());
  float denom = 0.0f;
  for (int j = 0; j < logits.Cols(); ++j) {
    if (valid[j]) {
      out.At(0, j) = std::exp(logits.At(0, j) - max_logit);
      denom += out.At(0, j);
    }
  }
  for (int j = 0; j < logits.Cols(); ++j) out.At(0, j) /= denom;
  return out;
}

void MaskedSoftmaxSliceInto(const Tensor& logits,
                            const std::vector<std::uint8_t>& valid, int c0,
                            int n, Tensor& out) {
  if (logits.Rows() != 1 || c0 < 0 || n <= 0 || c0 + n > logits.Cols() ||
      static_cast<int>(valid.size()) < c0 + n) {
    throw std::invalid_argument("MaskedSoftmaxSliceInto: bad slice");
  }
  CheckShape(out, 1, logits.Cols(), "MaskedSoftmaxSliceInto");
  // Mirror MaskedSoftmax exactly within the slice: max over valid, zero
  // fill, exp in ascending-j order, ascending-j denominator, then divide
  // EVERY slice entry by the denominator (masked entries are 0/denom = 0).
  // Only valid entries are written in the exp loop, so the masked majority
  // of a ready-set row costs a byte test each.
  const std::uint8_t* __restrict vd = valid.data() + c0;
  const float* __restrict ld = logits.Data() + c0;
  float* __restrict od = out.Data() + c0;
  float max_logit = -std::numeric_limits<float>::infinity();
  for (int j = 0; j < n; ++j) {
    if (vd[j]) max_logit = std::max(max_logit, ld[j]);
  }
  if (!std::isfinite(max_logit)) {
    throw std::invalid_argument("MaskedSoftmax: all entries masked");
  }
  std::fill(od, od + n, 0.0f);
  float denom = 0.0f;
  for (int j = 0; j < n; ++j) {
    if (vd[j]) {
      od[j] = std::exp(ld[j] - max_logit);
      denom += od[j];
    }
  }
  for (int j = 0; j < n; ++j) od[j] /= denom;
}

}  // namespace respect::nn
