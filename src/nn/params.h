// Named parameter store with gradient buffers and binary serialization.
//
// All trainable tensors of the LSTM-PtrNet live here.  The tape's Param()
// leaves reference the grad buffers; the Adam optimizer steps (value, grad)
// pairs; Save/Load round-trips everything so trained models can be reused by
// examples and benchmarks.
#pragma once

#include <map>
#include <random>
#include <string>

#include "nn/tensor.h"

namespace respect::nn {

class ParamStore {
 public:
  /// Creates (Xavier-initialized) or returns the existing named parameter.
  Tensor& GetOrCreate(const std::string& name, int rows, int cols,
                      std::mt19937_64& rng);

  [[nodiscard]] Tensor& Value(const std::string& name);
  [[nodiscard]] const Tensor& Value(const std::string& name) const;
  [[nodiscard]] Tensor& Grad(const std::string& name);
  [[nodiscard]] bool Contains(const std::string& name) const;

  /// Zeroes every gradient buffer (between optimizer steps).
  void ZeroGrads();

  /// Number of parameters (scalar count across all tensors).
  [[nodiscard]] std::int64_t ScalarCount() const;

  [[nodiscard]] const std::map<std::string, Tensor>& Values() const {
    return values_;
  }
  [[nodiscard]] std::map<std::string, Tensor>& MutableValues() {
    return values_;
  }

  /// Binary round trip.  Throws std::runtime_error on I/O or format errors.
  /// Load also rejects non-finite values, and replaces the store's contents
  /// only when the whole file is valid: after a throw the previous
  /// parameters are intact.
  void Save(const std::string& path) const;
  void Load(const std::string& path);

 private:
  std::map<std::string, Tensor> values_;
  std::map<std::string, Tensor> grads_;
};

}  // namespace respect::nn
