#include "nn/params.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace respect::nn {

Tensor& ParamStore::GetOrCreate(const std::string& name, int rows, int cols,
                                std::mt19937_64& rng) {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    if (it->second.Rows() != rows || it->second.Cols() != cols) {
      throw std::invalid_argument("ParamStore: shape conflict for " + name);
    }
    return it->second;
  }
  values_.emplace(name, Tensor::Xavier(rows, cols, rng));
  grads_.emplace(name, Tensor::Zeros(rows, cols));
  return values_.at(name);
}

Tensor& ParamStore::Value(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("ParamStore: unknown parameter " + name);
  }
  return it->second;
}

const Tensor& ParamStore::Value(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("ParamStore: unknown parameter " + name);
  }
  return it->second;
}

Tensor& ParamStore::Grad(const std::string& name) {
  const auto it = grads_.find(name);
  if (it == grads_.end()) {
    throw std::invalid_argument("ParamStore: unknown parameter " + name);
  }
  return it->second;
}

bool ParamStore::Contains(const std::string& name) const {
  return values_.count(name) > 0;
}

void ParamStore::ZeroGrads() {
  for (auto& [name, grad] : grads_) grad.Fill(0.0f);
}

std::int64_t ParamStore::ScalarCount() const {
  std::int64_t total = 0;
  for (const auto& [name, value] : values_) total += value.Size();
  return total;
}

namespace {
constexpr std::uint32_t kMagic = 0x52505433;  // "RPT3"
}  // namespace

void ParamStore::Save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("ParamStore::Save: cannot open " + path);
  const std::uint32_t magic = kMagic;
  const std::uint32_t count = static_cast<std::uint32_t>(values_.size());
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [name, value] : values_) {
    const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
    const std::int32_t rows = value.Rows();
    const std::int32_t cols = value.Cols();
    os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    os.write(name.data(), name_len);
    os.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    os.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    os.write(reinterpret_cast<const char*>(value.Data()),
             static_cast<std::streamsize>(value.Size() * sizeof(float)));
  }
  if (!os) throw std::runtime_error("ParamStore::Save: write failed: " + path);
}

void ParamStore::Load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("ParamStore::Load: cannot open " + path);
  std::uint32_t magic = 0, count = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!is || magic != kMagic) {
    throw std::runtime_error("ParamStore::Load: bad header in " + path);
  }
  // Parse into fresh maps and swap them in only once the whole file has
  // checked out, so a rejected file leaves the current weights untouched.
  std::map<std::string, Tensor> values;
  std::map<std::string, Tensor> grads;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    is.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
    if (!is || name_len > 4096) {
      throw std::runtime_error("ParamStore::Load: corrupt entry in " + path);
    }
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    std::int32_t rows = 0, cols = 0;
    is.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    is.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!is || rows < 0 || cols < 0 || rows > (1 << 20) || cols > (1 << 20)) {
      throw std::runtime_error("ParamStore::Load: corrupt shape in " + path);
    }
    Tensor t(rows, cols);
    is.read(reinterpret_cast<char*>(t.Data()),
            static_cast<std::streamsize>(t.Size() * sizeof(float)));
    if (!is) throw std::runtime_error("ParamStore::Load: truncated " + path);
    // Decode kernels rely on finite weights (nn/axpy.h), and a NaN weight
    // would turn every pointer logit into NaN.
    for (std::int64_t e = 0; e < t.Size(); ++e) {
      if (!std::isfinite(t.Data()[e])) {
        throw std::runtime_error("ParamStore::Load: non-finite value in " +
                                 name + " in " + path);
      }
    }
    grads.emplace(name, Tensor::Zeros(rows, cols));
    values.emplace(std::move(name), std::move(t));
  }
  values_.swap(values);
  grads_.swap(grads);
}

}  // namespace respect::nn
