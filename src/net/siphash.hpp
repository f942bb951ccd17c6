// SipHash-2-4 (Aumasson & Bernstein): a keyed 64-bit PRF small enough for
// per-packet use on switch-grade budgets.
//
// Used for the §6 "trustworthy telemetry" extension: with a shared key, the
// two Tango endpoints authenticate the measurement fields of every packet,
// so an off-path attacker cannot inject forged delay/loss samples and an
// on-path attacker cannot modify them undetected (it can still drop —
// detected as loss — or delay — which is the measurement itself).
#pragma once

#include <cstdint>
#include <span>

namespace tango::net {

/// 128-bit SipHash key.
struct SipHashKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;

  bool operator==(const SipHashKey&) const = default;
};

/// SipHash-2-4 of `data` under `key`.
[[nodiscard]] std::uint64_t siphash24(const SipHashKey& key,
                                      std::span<const std::uint8_t> data) noexcept;

/// Incremental SipHash-2-4: feed discontiguous pieces (header fields, then
/// the inner packet) without concatenating them into a scratch buffer.
/// `finish()` over the updates equals siphash24 over the concatenation.
/// This keeps per-packet authentication allocation-free on the fast path.
class SipHash {
 public:
  explicit SipHash(const SipHashKey& key) noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  void update_u16(std::uint16_t v) noexcept;
  void update_u64(std::uint64_t v) noexcept;

  /// Finalizes and returns the 64-bit tag.  The object must not be reused.
  [[nodiscard]] std::uint64_t finish() noexcept;

 private:
  std::uint64_t v0_, v1_, v2_, v3_;
  std::uint8_t buf_[8] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace tango::net
