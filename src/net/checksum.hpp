// RFC 1071 Internet checksum and the IPv6 UDP pseudo-header checksum.
//
// The Tango data plane recomputes the outer UDP checksum after stamping the
// telemetry header; getting this byte-exact matters because real middleboxes
// drop packets with bad checksums.
#pragma once

#include <cstdint>
#include <span>

#include "net/ip_address.hpp"

namespace tango::net {

/// One's-complement sum of 16-bit words (RFC 1071), not yet complemented,
/// added to `sum` with end-around carry.  The result may come back folded;
/// only its checksum_finish value is defined.  Exposed so callers can chain
/// partial sums (pseudo-header + payload); pieces after the first must
/// start at an even offset of the whole.
[[nodiscard]] std::uint32_t checksum_partial(std::span<const std::uint8_t> data,
                                             std::uint32_t sum = 0) noexcept;

/// Folds a partial sum and complements it into a final checksum field value.
[[nodiscard]] std::uint16_t checksum_finish(std::uint32_t sum) noexcept;

/// Full Internet checksum over one buffer.
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

/// UDP-over-IPv6 checksum (RFC 8200 §8.1): pseudo-header (src, dst,
/// upper-layer length, next header 17) followed by the UDP header+payload
/// with the checksum field taken as zero.  Returns the value to place in the
/// UDP checksum field (0x0000 results are transmitted as 0xFFFF per RFC 768).
[[nodiscard]] std::uint16_t udp6_checksum(const Ipv6Address& src, const Ipv6Address& dst,
                                          std::span<const std::uint8_t> udp_segment) noexcept;

/// Verifies a received UDP-over-IPv6 segment (checksum field included in the
/// covered bytes; the sum over a valid segment is zero).
[[nodiscard]] bool udp6_checksum_ok(const Ipv6Address& src, const Ipv6Address& dst,
                                    std::span<const std::uint8_t> udp_segment) noexcept;

}  // namespace tango::net
