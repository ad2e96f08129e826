// util/hash.h: the FNV-1a steps, and the hashes built on them pinned to
// literal values. Shard routing and the mapping-cache fingerprint are
// observable — the first decides which shard serves a request, the second
// names on-disk cache files — so these literals must never change.
#include <gtest/gtest.h>

#include "mars/accel/registry.h"
#include "mars/serve/cache.h"
#include "mars/serve/fleet.h"
#include "mars/topology/presets.h"
#include "mars/util/hash.h"

namespace mars::util {
namespace {

TEST(Hash, StandardFnv1aVectors) {
  EXPECT_EQ(fnv1a("", kFnvOffset), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", kFnvOffset), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", kFnvOffset), 0x85944171f73967e8ull);
  static_assert(kFnvOffset == 14695981039346656037ull);
}

TEST(Hash, LegacyOffsetIsTheTruncatedDecimalBasis) {
  static_assert(kLegacyFnvOffset == 1469598103934665603ull);
  EXPECT_NE(kLegacyFnvOffset, kFnvOffset);
  EXPECT_EQ(fnv1a("a", kLegacyFnvOffset),
            (kLegacyFnvOffset ^ 'a') * kFnvPrime);
}

TEST(Hash, BytewiseStepsCompose) {
  EXPECT_EQ(fnv1a("bar", fnv1a("foo", kFnvOffset)),
            fnv1a("foobar", kFnvOffset));
  // Little-endian integer bytes hash like the equivalent byte string.
  EXPECT_EQ(fnv1a_le(std::uint32_t{0x64636261}, kFnvOffset),
            fnv1a("abcd", kFnvOffset));
  EXPECT_EQ(fnv1a_le(std::uint64_t{0x6867666564636261}, kLegacyFnvOffset),
            fnv1a("abcdefgh", kLegacyFnvOffset));
  EXPECT_EQ(fnv1a_le(std::uint8_t{'a'}, kFnvOffset), fnv1a("a", kFnvOffset));
}

TEST(Hash, WordStepXorsTheWholeWord) {
  EXPECT_EQ(fnv1a_word(0, kFnvOffset), kFnvOffset * kFnvPrime);
  // One byte: the two steps agree; wider words do not.
  EXPECT_EQ(fnv1a_word(0x61, kFnvOffset), fnv1a("a", kFnvOffset));
  EXPECT_NE(fnv1a_word(0x6261, kFnvOffset), fnv1a("ab", kFnvOffset));
  EXPECT_EQ(fnv1a_word(7, fnv1a_word(5, kLegacyFnvOffset)),
            ((kLegacyFnvOffset ^ 5) * kFnvPrime ^ 7) * kFnvPrime);
}

TEST(Hash, Hex64PadsToSixteenDigits) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
}

TEST(Hash, ShardRoutingIsPinned) {
  EXPECT_EQ(serve::shard_of(0, 0, 4), 3);
  EXPECT_EQ(serve::shard_of(1, 42, 4), 0);
  EXPECT_EQ(serve::shard_of(3, 12345, 7), 5);
  EXPECT_EQ(serve::shard_of(2, 999, 16), 11);
  EXPECT_EQ(serve::shard_of(5, 7, 3), 2);
}

TEST(Hash, MappingCacheFingerprintIsPinned) {
  const accel::DesignRegistry designs = accel::table2_designs();
  EXPECT_EQ(serve::MappingCache::fingerprint(topology::f1_16xlarge(), designs,
                                             /*adaptive=*/true, "ga"),
            "cc7bf4a992e69dba");
  EXPECT_EQ(serve::MappingCache::fingerprint(topology::f1_16xlarge(), designs,
                                             /*adaptive=*/false,
                                             "anneal:budget=100"),
            "18be1736539d48ba");
}

}  // namespace
}  // namespace mars::util
