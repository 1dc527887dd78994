// 64-bit FNV-1a, the one fingerprint hash of the repository: snapshot and
// daemon-source fingerprints, the feed fingerprint, run-seed derivation and
// bench_parallel's determinism check all mix through it. Words are mixed
// as their 8 little-endian bytes and doubles as their IEEE-754 bit
// pattern, so a fingerprint is exact, not format-rounded.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace gurita {

class Fnv1a {
 public:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= kPrime;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash_ = 14695981039346656037ull;  // the offset basis
};

}  // namespace gurita
