#include "net/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace tango::net {
namespace {

TEST(Checksum, Rfc1071WorkedExample) {
  // The classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, EmptyBufferIsAllOnes) {
  EXPECT_EQ(internet_checksum(std::vector<std::uint8_t>{}), 0xFFFF);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> odd{0x12, 0x34, 0x56};
  const std::vector<std::uint8_t> even{0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(internet_checksum(odd), internet_checksum(even));
}

TEST(Checksum, PartialSumsChain) {
  const std::vector<std::uint8_t> all{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02};
  const std::vector<std::uint8_t> a{0xde, 0xad};
  const std::vector<std::uint8_t> b{0xbe, 0xef, 0x01, 0x02};
  const auto chained = checksum_finish(checksum_partial(b, checksum_partial(a)));
  EXPECT_EQ(chained, internet_checksum(all));
}

// Oracle: the RFC 1071 byte-pair loop, one big-endian 16-bit word at a time
// into a 64-bit accumulator that no caller sum can wrap.
std::uint64_t reference_partial(std::span<const std::uint8_t> data, std::uint64_t sum) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint64_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint64_t>(data[i] << 8);
  return sum;
}

std::uint16_t reference_checksum(std::span<const std::uint8_t> data, std::uint64_t sum = 0) {
  sum = reference_partial(data, sum);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(ChecksumOracle, EveryLengthAndStartOffset) {
  const auto buf = random_bytes(2048 + 8, 1071);
  std::mt19937_64 rng{8200};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 2048; ++len) {
      const auto piece = std::span<const std::uint8_t>{buf}.subspan(offset, len);
      const auto caller = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(checksum_finish(checksum_partial(piece)), reference_checksum(piece))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(checksum_finish(checksum_partial(piece, caller)),
                reference_checksum(piece, caller))
          << "offset " << offset << " length " << len << " caller sum " << caller;
    }
  }
}

TEST(ChecksumOracle, UniformBuffersKeepTheZeroDistinction) {
  // One's complement has two zeros: all-zero data sums to +0 (checksum
  // 0xFFFF), all-ones data to -0 (checksum 0x0000).  Folding must keep them
  // apart exactly as the word-at-a-time sum does.
  for (std::size_t len = 0; len <= 64; ++len) {
    for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
      const std::vector<std::uint8_t> data(len, fill);
      EXPECT_EQ(internet_checksum(data), reference_checksum(data))
          << "length " << len << " fill " << int{fill};
    }
  }
}

TEST(ChecksumOracle, ChainsAtEvenSplitPoints) {
  std::mt19937_64 rng{1624};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto data = random_bytes(rng() % 2049, rng());
    std::uint32_t sum = static_cast<std::uint32_t>(rng());
    const std::uint16_t want = reference_checksum(data, sum);
    std::size_t at = 0;
    while (at < data.size()) {
      // Every piece but the last has even length, so each starts at an even
      // offset of the whole.
      const std::size_t len = std::min(2 + ((rng() % 300) & ~std::size_t{1}), data.size() - at);
      sum = checksum_partial(std::span<const std::uint8_t>{data}.subspan(at, len), sum);
      at += len;
    }
    ASSERT_EQ(checksum_finish(sum), want) << "trial " << trial << " length " << data.size();
  }
}

TEST(ChecksumOracle, CarriesFoldOnMaximalInputs) {
  // 65,535 bytes of 0xFF with a caller sum near 2^32: the largest sums any
  // caller can hand in, where every end-around carry matters.
  const std::vector<std::uint8_t> ones(65535, 0xFF);
  const std::uint32_t callers[] = {0xFFFFFFFFu, 0xFFFFFFFEu, 0xFFFF0000u, 0xFFFEFFFFu, 0xFFFFFFF0u};
  for (const std::uint32_t caller : callers) {
    EXPECT_EQ(checksum_finish(checksum_partial(ones, caller)), reference_checksum(ones, caller))
        << "caller sum " << caller;
  }
  const auto random = random_bytes(65535, 65535);
  EXPECT_EQ(checksum_finish(checksum_partial(random, 0xFFFFFFFFu)),
            reference_checksum(random, 0xFFFFFFFFu));
}

TEST(Udp6Checksum, ValidSegmentVerifies) {
  const Ipv6Address src = *Ipv6Address::parse("2620:110:9001::1");
  const Ipv6Address dst = *Ipv6Address::parse("2620:110:9011::1");
  // Build a UDP segment: header (ports 7654/7654, length) + payload.
  std::vector<std::uint8_t> seg{0x1d, 0xe6, 0x1d, 0xe6, 0x00, 0x0c,
                                0x00, 0x00,  // checksum placeholder
                                0xde, 0xad, 0xbe, 0xef};
  const std::uint16_t csum = udp6_checksum(src, dst, seg);
  seg[6] = static_cast<std::uint8_t>(csum >> 8);
  seg[7] = static_cast<std::uint8_t>(csum);
  EXPECT_TRUE(udp6_checksum_ok(src, dst, seg));
}

TEST(Udp6Checksum, DetectsSingleBitFlipsEverywhere) {
  const Ipv6Address src = *Ipv6Address::parse("2001:db8::1");
  const Ipv6Address dst = *Ipv6Address::parse("2001:db8::2");
  std::vector<std::uint8_t> seg{0x30, 0x39, 0x1d, 0xe6, 0x00, 0x10, 0x00, 0x00,
                                0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  const std::uint16_t csum = udp6_checksum(src, dst, seg);
  seg[6] = static_cast<std::uint8_t>(csum >> 8);
  seg[7] = static_cast<std::uint8_t>(csum);
  ASSERT_TRUE(udp6_checksum_ok(src, dst, seg));

  for (std::size_t byte = 0; byte < seg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = seg;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(udp6_checksum_ok(src, dst, corrupted))
          << "flip at byte " << byte << " bit " << bit << " undetected";
    }
  }
}

TEST(Udp6Checksum, DetectsWrongPseudoHeader) {
  const Ipv6Address src = *Ipv6Address::parse("2001:db8::1");
  const Ipv6Address dst = *Ipv6Address::parse("2001:db8::2");
  std::vector<std::uint8_t> seg{0x30, 0x39, 0x1d, 0xe6, 0x00, 0x0a, 0x00, 0x00, 0xaa, 0xbb};
  const std::uint16_t csum = udp6_checksum(src, dst, seg);
  seg[6] = static_cast<std::uint8_t>(csum >> 8);
  seg[7] = static_cast<std::uint8_t>(csum);
  // Swap src/dst roles: different pseudo-header must fail unless symmetric —
  // use a genuinely different address.
  EXPECT_FALSE(udp6_checksum_ok(src, *Ipv6Address::parse("2001:db8::3"), seg));
}

TEST(Udp6Checksum, NeverEmitsZero) {
  // RFC 768: a computed 0 is sent as 0xFFFF.  Find inputs by brute force:
  // any result is acceptable as long as it is nonzero.
  std::mt19937_64 rng{7};
  const Ipv6Address src = *Ipv6Address::parse("2001:db8::1");
  const Ipv6Address dst = *Ipv6Address::parse("2001:db8::2");
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> seg(10);
    for (auto& b : seg) b = static_cast<std::uint8_t>(rng());
    seg[6] = seg[7] = 0;
    EXPECT_NE(udp6_checksum(src, dst, seg), 0);
  }
}

}  // namespace
}  // namespace tango::net
