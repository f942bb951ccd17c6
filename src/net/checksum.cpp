#include "net/checksum.hpp"

#include <bit>
#include <cstring>

namespace tango::net {

namespace {

/// Adds both native-order 32-bit halves of the 8 bytes at `p`.
std::uint64_t halves(const std::uint8_t* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return (w & 0xFFFFFFFF) + (w >> 32);
}

}  // namespace

std::uint32_t checksum_partial(std::span<const std::uint8_t> data, std::uint32_t sum) noexcept {
  // RFC 1071 §2(B): the one's-complement sum is byte-order independent, so
  // sum native-order words and byte-swap the folded result once.  A 32-bit
  // half is two 16-bit words, and 2^16 == 1 (mod 0xFFFF), so adding halves
  // into 64 bits is the same sum; it cannot overflow below 2^32 halves.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t acc = 0;
  for (; n >= 8; p += 8, n -= 8) acc += halves(p);
  if (n != 0) {
    std::uint8_t tail[8] = {};  // zero padding, as for an odd trailing byte
    std::memcpy(tail, p, n);
    acc += halves(tail);
  }

  // End-around folding keeps the sum modulo 0xFFFF and a nonzero sum
  // nonzero, so checksum_finish sees the same one's-complement value as it
  // would for the word-at-a-time sum.
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  if constexpr (std::endian::native == std::endian::little) {
    acc = ((acc & 0xFF) << 8) | (acc >> 8);
  }
  const std::uint64_t total = std::uint64_t{sum} + acc;
  return static_cast<std::uint32_t>((total & 0xFFFFFFFF) + (total >> 32));
}

std::uint16_t checksum_finish(std::uint32_t sum) noexcept {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  return checksum_finish(checksum_partial(data));
}

namespace {

std::uint32_t pseudo_header_sum(const Ipv6Address& src, const Ipv6Address& dst,
                                std::uint32_t upper_len) noexcept {
  std::uint32_t sum = checksum_partial(src.bytes(), checksum_partial(dst.bytes()));
  sum += upper_len >> 16;
  sum += upper_len & 0xFFFF;
  sum += 17;  // next header = UDP
  return sum;
}

}  // namespace

std::uint16_t udp6_checksum(const Ipv6Address& src, const Ipv6Address& dst,
                            std::span<const std::uint8_t> udp_segment) noexcept {
  std::uint32_t sum =
      pseudo_header_sum(src, dst, static_cast<std::uint32_t>(udp_segment.size()));
  sum = checksum_partial(udp_segment, sum);
  const std::uint16_t csum = checksum_finish(sum);
  return csum == 0 ? 0xFFFF : csum;  // RFC 768: transmitted zero means "no checksum"
}

bool udp6_checksum_ok(const Ipv6Address& src, const Ipv6Address& dst,
                      std::span<const std::uint8_t> udp_segment) noexcept {
  std::uint32_t sum =
      pseudo_header_sum(src, dst, static_cast<std::uint32_t>(udp_segment.size()));
  sum = checksum_partial(udp_segment, sum);
  return checksum_finish(sum) == 0;
}

}  // namespace tango::net
