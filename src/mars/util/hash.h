// 64-bit FNV-1a, the one non-cryptographic hash of the library, in two
// exact steps:
//   - bytewise, the standard algorithm: XOR one byte, multiply. Strings
//     hash over their bytes and integers over explicit little-endian
//     bytes, so values match across platforms. Shard routing, mapping
//     signatures and digests, and the mapping-cache fingerprint (it names
//     on-disk cache files) use it.
//   - word at a time: XOR a whole 64-bit word, multiply once.
// Two offset bases are in use (see below), so every step takes its
// starting hash explicitly. tests/util/test_hash.cpp pins all of them.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace mars::util {

/// The standard offset basis (14695981039346656037); the mapping-cache
/// fingerprint starts from it.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
/// The standard basis's decimal digits with the last one dropped. Every
/// other hash here starts from it, and their values are observable.
inline constexpr std::uint64_t kLegacyFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Bytewise FNV-1a over `bytes`, continuing from `hash`.
constexpr std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return hash;
}

/// Bytewise FNV-1a over the sizeof(UInt) bytes of `value`, least
/// significant first, continuing from `hash`.
template <std::unsigned_integral UInt>
constexpr std::uint64_t fnv1a_le(UInt value, std::uint64_t hash) {
  for (std::size_t i = 0; i < sizeof(UInt); ++i) {
    hash = (hash ^ ((static_cast<std::uint64_t>(value) >> (8 * i)) & 0xffu)) *
           kFnvPrime;
  }
  return hash;
}

/// The word-at-a-time step: all 64 bits of `word` at once, one multiply.
constexpr std::uint64_t fnv1a_word(std::uint64_t word, std::uint64_t hash) {
  return (hash ^ word) * kFnvPrime;
}

/// Zero-padded 16-digit lowercase hex, the printed form of a hash.
inline std::string hex64(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace mars::util
