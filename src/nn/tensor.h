// Dense 2-D float tensor — the numeric value type of the NN substrate.
//
// Everything the LSTM-PtrNet needs is expressible with small dense matrices
// (hidden size d <= a few hundred, sequence length |V| <= ~800), so the
// library deliberately stays 2-D, row-major, CPU-only, with no views.  The
// autodiff tape (tape.h) works on these values; the inference path uses the
// free functions here directly.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace respect::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols) : rows_(rows), cols_(cols), data_(Size()) {}
  Tensor(int rows, int cols, float fill)
      : rows_(rows), cols_(cols), data_(Size(), fill) {}

  [[nodiscard]] static Tensor Zeros(int rows, int cols) {
    return Tensor(rows, cols);
  }

  /// Xavier/Glorot uniform initialization: U(-a, a), a = sqrt(6/(in+out)).
  [[nodiscard]] static Tensor Xavier(int rows, int cols, std::mt19937_64& rng);

  [[nodiscard]] int Rows() const { return rows_; }
  [[nodiscard]] int Cols() const { return cols_; }
  [[nodiscard]] std::int64_t Size() const {
    return std::int64_t{rows_} * cols_;
  }

  [[nodiscard]] float& At(int r, int c) { return data_[Index(r, c)]; }
  [[nodiscard]] float At(int r, int c) const { return data_[Index(r, c)]; }

  [[nodiscard]] float* Data() { return data_.data(); }
  [[nodiscard]] const float* Data() const { return data_.data(); }

  [[nodiscard]] bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

  /// Reshapes to (rows, cols), reusing the existing storage.  Capacity never
  /// shrinks, so a tensor cycled through the sizes of a workspace reaches a
  /// steady state where Resize performs no heap allocation.  Contents are
  /// unspecified after a Resize — callers overwrite (or Fill) before reading.
  void Resize(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(Size());
  }

  /// this += other (shapes must match).
  void Accumulate(const Tensor& other);

 private:
  [[nodiscard]] std::int64_t Index(int r, int c) const {
    return std::int64_t{r} * cols_ + c;
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// ---- Value-level operations (shared by the inference path and the tape's
// forward pass).  All functions check shapes and throw std::invalid_argument
// on mismatch. ----

[[nodiscard]] Tensor MatMul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor Mul(const Tensor& a, const Tensor& b);  // elementwise
[[nodiscard]] Tensor Scale(const Tensor& a, float s);
[[nodiscard]] Tensor Tanh(const Tensor& a);
[[nodiscard]] Tensor Sigmoid(const Tensor& a);

/// a: (r, c), col: (r, 1) broadcast-added to every column.
[[nodiscard]] Tensor AddBroadcastCol(const Tensor& a, const Tensor& col);

/// Stacks column vectors (all (r,1)) into an (r, n) matrix.
[[nodiscard]] Tensor ConcatCols(const std::vector<Tensor>& cols);

/// Rows [r0, r1) of a.
[[nodiscard]] Tensor SliceRows(const Tensor& a, int r0, int r1);

[[nodiscard]] Tensor Transpose(const Tensor& a);

/// Columns [c0, c1) of a.
[[nodiscard]] Tensor SliceCols(const Tensor& a, int c0, int c1);

/// Masked softmax over a (1, n) row: entries with mask[i]==false get
/// probability 0.  Throws when every entry is masked.
[[nodiscard]] Tensor MaskedSoftmax(const Tensor& logits,
                                   const std::vector<bool>& valid);

// ---- Destination-passing variants (the inference hot path). ----
//
// Each writes into a caller-owned `out` tensor that must already have the
// result shape, and performs no heap allocation.  Results are bit-identical
// to the allocating counterparts above: the kernels preserve the same
// floating-point summation order.  `out` must not alias an input.

/// out = a · b.  out must be (a.Rows(), b.Cols()).
void MatMulInto(const Tensor& a, const Tensor& b, Tensor& out);

/// out = a + b (elementwise).
void AddInto(const Tensor& a, const Tensor& b, Tensor& out);

/// out = tanh(a) (elementwise).  out == &a is allowed.
void TanhInto(const Tensor& a, Tensor& out);

/// out = sigmoid(a) (elementwise).  out == &a is allowed.
void SigmoidInto(const Tensor& a, Tensor& out);

/// out = aᵀ.  out must be (a.Cols(), a.Rows()).
void TransposeInto(const Tensor& a, Tensor& out);

/// a[:, j] += col[j-th row broadcast]: adds `col` ((rows, 1)) to every
/// column of `a` in place.
void AddBroadcastColInPlace(Tensor& a, const Tensor& col);

/// Masked softmax over the column slice [c0, c0+n) of a packed (1, total)
/// logits row, writing the same slice of `out` (also (1, total)); entries
/// outside the slice are untouched.  `valid` is indexed by absolute column
/// (same packing as `logits`) and uses 0/non-0 bytes so the mask can live
/// in a reusable workspace buffer (std::vector<bool> cannot hand out stable
/// storage).  Bit-identical to MaskedSoftmax run on the extracted slice —
/// this is the per-graph softmax of the inference decode, which packs B
/// graphs' logits side by side.  Throws when every entry in the slice is
/// masked.
void MaskedSoftmaxSliceInto(const Tensor& logits,
                            const std::vector<std::uint8_t>& valid, int c0,
                            int n, Tensor& out);

}  // namespace respect::nn
