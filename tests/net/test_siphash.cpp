#include "net/siphash.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace tango::net {
namespace {

/// The reference implementation's test setting: key = 00 01 02 ... 0f
/// (little-endian k0/k1), input = 00 01 02 ... (n-1).
SipHashKey reference_key() {
  return SipHashKey{.k0 = 0x0706050403020100ull, .k1 = 0x0f0e0d0c0b0a0908ull};
}

std::vector<std::uint8_t> counting_input(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(SipHash, OfficialVectors) {
  // First entries of the official vectors_sip64 table from the SipHash
  // reference implementation (https://github.com/veorq/SipHash), stored
  // there little-endian; written here as u64 values.
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ull,  // len 0
      0x74f839c593dc67fdull,  // len 1
      0x0d6c8009d9a94f5aull,  // len 2
      0x85676696d7fb7e2dull,  // len 3
      0xcf2794e0277187b7ull,  // len 4
      0x18765564cd99a68dull,  // len 5
      0xcbc9466e58fee3ceull,  // len 6
      0xab0200f58b01d137ull,  // len 7
      0x93f5f5799a932462ull,  // len 8
      0x9e0082df0ba9e4b0ull,  // len 9
      0x7a5dbbc594ddb9f3ull,  // len 10
      0xf4b32f46226bada7ull,  // len 11
      0x751e8fbc860ee5fbull,  // len 12
      0x14ea5627c0843d90ull,  // len 13
      0xf723ca908e7af2eeull,  // len 14
      0xa129ca6149be45e5ull,  // len 15
  };
  const SipHashKey key = reference_key();
  for (std::size_t n = 0; n < std::size(expected); ++n) {
    EXPECT_EQ(siphash24(key, counting_input(n)), expected[n]) << "length " << n;
  }
}

// Oracle: SipHash-2-4 as the paper by Aumasson & Bernstein states it, one
// byte-shift little-endian load per word over a contiguous buffer.
std::uint64_t reference_siphash24(const SipHashKey& key, std::span<const std::uint8_t> in) {
  const auto rotl = [](std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); };
  std::uint64_t v0 = key.k0 ^ 0x736f6d6570736575ull;
  std::uint64_t v1 = key.k1 ^ 0x646f72616e646f6dull;
  std::uint64_t v2 = key.k0 ^ 0x6c7967656e657261ull;
  std::uint64_t v3 = key.k1 ^ 0x7465646279746573ull;
  const auto round = [&] {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  };
  const auto compress = [&](std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  };
  std::size_t i = 0;
  for (; i + 8 <= in.size(); i += 8) {
    std::uint64_t m = 0;
    for (int b = 7; b >= 0; --b) m = (m << 8) | in[i + static_cast<std::size_t>(b)];
    compress(m);
  }
  std::uint64_t last = static_cast<std::uint64_t>(in.size() & 0xFF) << 56;
  for (std::size_t b = 0; i + b < in.size(); ++b) {
    last |= static_cast<std::uint64_t>(in[i + b]) << (8 * b);
  }
  compress(last);
  v2 ^= 0xFF;
  for (int r = 0; r < 4; ++r) round();
  return v0 ^ v1 ^ v2 ^ v3;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(SipHashOracle, ReferenceMatchesOfficialVectors) {
  EXPECT_EQ(reference_siphash24(reference_key(), counting_input(0)), 0x726fdb47dd0e0e31ull);
  EXPECT_EQ(reference_siphash24(reference_key(), counting_input(15)), 0xa129ca6149be45e5ull);
}

TEST(SipHashOracle, EveryLengthAndUnalignedStart) {
  const SipHashKey key{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};
  const auto buf = random_bytes(1600 + 8, 2424);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1600; ++len) {
      const auto piece = std::span<const std::uint8_t>{buf}.subspan(offset, len);
      ASSERT_EQ(siphash24(key, piece), reference_siphash24(key, piece))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(SipHashOracle, ArbitrarySplitsAcrossTheBlockBuffer) {
  // Random interleavings of update / update_u16 / update_u64 must equal the
  // one-shot hash of the bytes they append (u16/u64 big-endian), wherever
  // the pieces fall relative to the 8-byte block boundary.
  std::mt19937_64 rng{1606};
  for (int trial = 0; trial < 3000; ++trial) {
    const SipHashKey key{.k0 = rng(), .k1 = rng()};
    const auto pool = random_bytes(64 + 8, rng());
    SipHash h{key};
    std::vector<std::uint8_t> all;
    const std::size_t ops = rng() % 24;
    for (std::size_t op = 0; op < ops; ++op) {
      switch (rng() % 3) {
        case 0: {
          const std::size_t start = rng() % 8;
          const auto piece = std::span<const std::uint8_t>{pool}.subspan(start, rng() % 65);
          h.update(piece);
          all.insert(all.end(), piece.begin(), piece.end());
          break;
        }
        case 1: {
          const auto v = static_cast<std::uint16_t>(rng());
          h.update_u16(v);
          all.push_back(static_cast<std::uint8_t>(v >> 8));
          all.push_back(static_cast<std::uint8_t>(v));
          break;
        }
        default: {
          const std::uint64_t v = rng();
          h.update_u64(v);
          for (int s = 56; s >= 0; s -= 8) all.push_back(static_cast<std::uint8_t>(v >> s));
          break;
        }
      }
    }
    ASSERT_EQ(h.finish(), reference_siphash24(key, all))
        << "trial " << trial << " total length " << all.size();
  }
}

TEST(SipHash, KeySensitivity) {
  const auto data = counting_input(32);
  const std::uint64_t base = siphash24(reference_key(), data);
  SipHashKey other = reference_key();
  other.k0 ^= 1;
  EXPECT_NE(siphash24(other, data), base);
  other = reference_key();
  other.k1 ^= 0x8000000000000000ull;
  EXPECT_NE(siphash24(other, data), base);
}

TEST(SipHash, InputSensitivity) {
  const SipHashKey key = reference_key();
  auto data = counting_input(64);
  const std::uint64_t base = siphash24(key, data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    auto tampered = data;
    tampered[byte] ^= 0x01;
    EXPECT_NE(siphash24(key, tampered), base) << "byte " << byte;
  }
  // Length extension: same prefix, one extra byte.
  auto longer = data;
  longer.push_back(0);
  EXPECT_NE(siphash24(key, longer), base);
}

TEST(SipHash, Deterministic) {
  const SipHashKey key{.k0 = 42, .k1 = 4242};
  const auto data = counting_input(100);
  EXPECT_EQ(siphash24(key, data), siphash24(key, data));
}

}  // namespace
}  // namespace tango::net
