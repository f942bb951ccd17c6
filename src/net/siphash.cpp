#include "net/siphash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace tango::net {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int b) noexcept {
  return (x << b) | (x >> (64 - b));
}

/// Little-endian 64-bit load (SipHash is specified little-endian): one
/// unaligned native load, byte-swapped only on big-endian hosts.
std::uint64_t load_le(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

/// The four state words, copied into locals for a whole block loop.  Input
/// arrives as uint8_t, which may alias anything, so a loop that updated the
/// object's members directly would store and reload them on every block.
struct Lanes {
  std::uint64_t v0, v1, v2, v3;

  void round() noexcept {
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
  }

  void compress(std::uint64_t m) noexcept {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }
};

}  // namespace

SipHash::SipHash(const SipHashKey& key) noexcept
    : v0_{key.k0 ^ 0x736f6d6570736575ull},
      v1_{key.k1 ^ 0x646f72616e646f6dull},
      v2_{key.k0 ^ 0x6c7967656e657261ull},
      v3_{key.k1 ^ 0x7465646279746573ull} {}

void SipHash::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return;  // empty spans may carry a null pointer; memcpy forbids it
  total_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  Lanes s{v0_, v1_, v2_, v3_};
  if (buffered_ != 0) {
    const std::size_t take = std::min(8 - buffered_, n);
    std::memcpy(buf_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < 8) return;
    s.compress(load_le(buf_));
    buffered_ = 0;
  }

  for (; n >= 8; p += 8, n -= 8) s.compress(load_le(p));

  std::memcpy(buf_, p, n);
  buffered_ = n;
  v0_ = s.v0;
  v1_ = s.v1;
  v2_ = s.v2;
  v3_ = s.v3;
}

void SipHash::update_u16(std::uint16_t v) noexcept {
  // Matches ByteWriter::u16 (big-endian on the wire).
  const std::uint8_t be[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  update(be);
}

void SipHash::update_u64(std::uint64_t v) noexcept {
  std::uint8_t be[8];
  for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  update(be);
}

std::uint64_t SipHash::finish() noexcept {
  // Final block: buffered tail bytes, zero-padded, + total length in the
  // top byte.
  std::uint8_t tail[8] = {};
  std::memcpy(tail, buf_, buffered_);
  Lanes s{v0_, v1_, v2_, v3_};
  s.compress(load_le(tail) | ((total_ & 0xFF) << 56));

  s.v2 ^= 0xFF;
  s.round();
  s.round();
  s.round();
  s.round();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

std::uint64_t siphash24(const SipHashKey& key, std::span<const std::uint8_t> data) noexcept {
  SipHash h{key};
  h.update(data);
  return h.finish();
}

}  // namespace tango::net
