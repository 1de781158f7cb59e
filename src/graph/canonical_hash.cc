#include "graph/canonical_hash.h"

#include <cstdio>

#include "graph/serialize.h"

namespace respect::graph {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kSecondPrime = 0xc6a4a7935bd1e995ULL;  // odd, distinct

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string CanonicalHash::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

std::optional<CanonicalHash> CanonicalHash::FromHex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(16 * w + i)];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
      words[w] = (words[w] << 4) | digit;
    }
  }
  return CanonicalHash{words[0], words[1]};
}

void CanonicalHasher::Update(std::string_view bytes) {
  std::uint64_t a = a_;
  std::uint64_t b = b_;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    a = (a ^ byte) * kFnvPrime;
    b = (b ^ byte) * kSecondPrime;
  }
  a_ = a;
  b_ = b;
}

void CanonicalHasher::Update(std::uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  Update(std::string_view(buf, sizeof(buf)));
}

CanonicalHash CanonicalHasher::Finish() const {
  const std::uint64_t hi = SplitMix64(a_);
  return CanonicalHash{hi, SplitMix64(b_ ^ hi)};
}

CanonicalHash HashDag(const Dag& dag) {
  CanonicalHasher hasher;
  EmitDag(dag, [&hasher](std::string_view text) { hasher.Update(text); });
  return hasher.Finish();
}

}  // namespace respect::graph
