// Fast-path equivalence: the in-place headroom encap/decap must produce
// wire output byte-identical to the copying reference implementation —
// including authenticated packets and the outer UDP checksum — and the
// zero-copy view + trim must recover the inner packet exactly.
#include <gtest/gtest.h>

#include <random>

#include "dataplane/encap.hpp"
#include "net/checksum.hpp"

namespace tango::dataplane {
namespace {

const net::SipHashKey kKey{.k0 = 0x746f6e6779776f6eull, .k1 = 0x74616e676f746e67ull};

const net::Ipv6Address kHostA = *net::Ipv6Address::parse("2620:110:900a::10");
const net::Ipv6Address kHostB = *net::Ipv6Address::parse("2620:110:901b::10");
const net::Ipv6Address kTunA = *net::Ipv6Address::parse("2620:110:9001::1");
const net::Ipv6Address kTunB = *net::Ipv6Address::parse("2620:110:9011::1");

TunnelTable one_tunnel() {
  TunnelTable table;
  table.install(Tunnel{.id = 1,
                       .label = "NTT",
                       .local_endpoint = kTunA,
                       .remote_endpoint = kTunB,
                       .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                       .udp_src_port = 49153});
  return table;
}

net::Packet inner_packet(std::size_t payload_size = 64) {
  std::vector<std::uint8_t> payload(payload_size);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  return net::make_udp_packet(kHostA, kHostB, 1111, 2222, payload);
}

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

TEST(FastPath, InplaceEncapMatchesCopyingEncap) {
  const net::TangoHeader hdr{.path_id = 7, .tx_time_ns = 123456789, .sequence = 99};
  for (std::size_t payload : {0u, 1u, 64u, 512u, 1400u}) {
    const net::Packet inner = inner_packet(payload);
    const net::Packet reference = net::encapsulate_tango(inner, kTunA, kTunB, 49153, hdr);
    net::Packet fast = inner;  // copy keeps the headroom
    net::encapsulate_tango_inplace(fast, kTunA, kTunB, 49153, hdr);
    EXPECT_EQ(to_vec(fast.bytes()), to_vec(reference.bytes()))
        << "wire bytes diverge at payload size " << payload;
  }
}

TEST(FastPath, InplaceEncapCorrectWithoutHeadroom) {
  // A packet adopted from raw bytes has no headroom: prepend must take the
  // reallocating slow path and still produce identical wire output.
  const net::TangoHeader hdr{.path_id = 2, .tx_time_ns = 55, .sequence = 3};
  const net::Packet inner = inner_packet();
  net::Packet bare{to_vec(inner.bytes())};
  ASSERT_EQ(bare.headroom(), 0u);
  const net::Packet reference = net::encapsulate_tango(inner, kTunA, kTunB, 49153, hdr);
  net::encapsulate_tango_inplace(bare, kTunA, kTunB, 49153, hdr);
  EXPECT_EQ(to_vec(bare.bytes()), to_vec(reference.bytes()));
  EXPECT_EQ(bare.headroom(), net::Packet::kDefaultHeadroom)
      << "slow path reopens default headroom for the next encapsulation";
}

TEST(FastPath, OuterUdpChecksumValidOnInplaceWire) {
  const net::TangoHeader hdr{.path_id = 1, .tx_time_ns = 42, .sequence = 0};
  net::Packet fast = inner_packet();
  net::encapsulate_tango_inplace(fast, kTunA, kTunB, 49153, hdr);
  const auto udp_segment = fast.bytes().subspan(net::Ipv6Header::kSize);
  EXPECT_TRUE(net::udp6_checksum_ok(kTunA, kTunB, udp_segment));
}

TEST(FastPath, AuthenticatedWrapInplaceMatchesCopyingWrap) {
  TunnelTable table_a = one_tunnel();
  TunnelTable table_b = one_tunnel();
  sim::NodeClock clock;
  TunnelSender copying{table_a, clock, kKey};
  TunnelSender inplace{table_b, clock, kKey};

  for (int i = 0; i < 3; ++i) {  // sequences advance in lockstep
    auto reference = copying.wrap(inner_packet(), 1, sim::from_ms(10 + i));
    ASSERT_TRUE(reference.has_value());
    net::Packet fast = inner_packet();
    ASSERT_TRUE(inplace.wrap_inplace(fast, 1, sim::from_ms(10 + i)));
    EXPECT_EQ(to_vec(fast.bytes()), to_vec(reference->bytes()))
        << "authenticated wire bytes diverge at sequence " << i;
  }
}

TEST(FastPath, ViewMatchesCopyingDecap) {
  const net::TangoHeader hdr{.path_id = 5, .tx_time_ns = 777, .sequence = 13};
  net::Packet wan = inner_packet(128);
  net::encapsulate_tango_inplace(wan, kTunA, kTunB, 49153, hdr);

  const auto copied = net::decapsulate_tango(wan);
  const auto view = net::decapsulate_tango_view(wan);
  ASSERT_TRUE(copied.has_value());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->outer_ip, copied->outer_ip);
  EXPECT_EQ(view->udp, copied->udp);
  EXPECT_EQ(view->tango, copied->tango);
  EXPECT_EQ(to_vec(view->inner), to_vec(copied->inner.bytes()));
  EXPECT_EQ(view->outer_size + view->inner.size(), wan.size());
}

TEST(FastPath, TrimAfterViewRecoversInnerExactly) {
  const net::TangoHeader hdr{.path_id = 5, .tx_time_ns = 777, .sequence = 13};
  const net::Packet inner = inner_packet(256);
  net::Packet wan = inner;
  net::encapsulate_tango_inplace(wan, kTunA, kTunB, 49153, hdr);
  const auto view = net::decapsulate_tango_view(wan);
  ASSERT_TRUE(view.has_value());
  wan.trim_front(view->outer_size);
  EXPECT_EQ(wan, inner);
  EXPECT_GE(wan.headroom(), net::Packet::kDefaultHeadroom)
      << "trimmed outer headers become headroom for re-encapsulation";
}

TEST(FastPath, UnwrapInplaceMatchesCopyingUnwrap) {
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver copying{clock, /*keep_series=*/false, kKey};
  TunnelReceiver inplace{clock, /*keep_series=*/false, kKey};

  auto wan = sender.wrap(inner_packet(), 1, sim::from_ms(100));
  ASSERT_TRUE(wan.has_value());
  net::Packet wan2 = *wan;

  auto ref = copying.unwrap(*wan, sim::from_ms(130));
  auto info = inplace.unwrap_inplace(wan2, sim::from_ms(130));
  ASSERT_TRUE(ref.has_value());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->path, ref->second.path);
  EXPECT_DOUBLE_EQ(info->owd_ms, ref->second.owd_ms);
  EXPECT_EQ(info->sequence, ref->second.sequence);
  EXPECT_EQ(wan2, ref->first) << "in-place unwrap must leave exactly the inner packet";
}

TEST(FastPath, AuthRejectionLeavesPacketUntouched) {
  TunnelTable table = one_tunnel();
  sim::NodeClock clock;
  TunnelSender sender{table, clock, kKey};
  TunnelReceiver receiver{clock, /*keep_series=*/false, kKey};

  auto wan = sender.wrap(inner_packet(), 1, 0);
  ASSERT_TRUE(wan.has_value());
  net::Packet tampered = *wan;
  // Flip a bit in the Tango sequence field (after IPv6+UDP+magic..), then
  // fix the UDP checksum so only the auth check can catch it.
  const std::size_t seq_off = net::Ipv6Header::kSize + net::UdpHeader::kSize + 16;
  tampered.mutable_bytes()[seq_off + 7] ^= 0x01;
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 6] = 0;
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 7] = 0;
  const std::uint16_t csum = net::udp6_checksum(
      kTunA, kTunB, tampered.bytes().subspan(net::Ipv6Header::kSize));
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 6] = static_cast<std::uint8_t>(csum >> 8);
  tampered.mutable_bytes()[net::Ipv6Header::kSize + 7] = static_cast<std::uint8_t>(csum);

  const auto before = to_vec(tampered.bytes());
  EXPECT_FALSE(receiver.unwrap_inplace(tampered, sim::from_ms(30)).has_value());
  EXPECT_EQ(to_vec(tampered.bytes()), before)
      << "rejected packets must not be mutated (no partial trim)";
  EXPECT_EQ(receiver.auth_failures(), 1u);
}

// Golden wire values: the MAC and checksum kernels are rewritten for speed
// from time to time, and these constants (taken from the byte-at-a-time
// kernels) pin their output to the bit.  A change here is a wire change.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

net::Packet golden_inner() {
  std::vector<std::uint8_t> payload(1400);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 167 + 13);
  }
  return net::make_udp_packet(kHostA, kHostB, 40000, 443, payload);
}

TEST(WireGolden, AuthTagOverEveryHeaderWord) {
  net::TangoHeader h;
  h.flags |= net::TangoHeader::kFlagAuthenticated;
  h.path_id = 0xA55A;
  h.tx_time_ns = 0x0123456789ABCDEFull;
  h.sequence = 0xFEDCBA9876543210ull;
  const net::Packet inner = golden_inner();
  ASSERT_EQ(fnv1a64(inner.bytes()), 0xe166c4f59d1cc792ull) << "inner packet builder changed";
  EXPECT_EQ(telemetry_auth_tag(kKey, h, inner), 0x06dcad8cfe71d7bdull);
  EXPECT_EQ(telemetry_auth_tag(kKey, h, std::span<const std::uint8_t>{}),
            0x4fdede22955dcd22ull);
}

TEST(WireGolden, Keyed1400ByteWrapIsByteExact) {
  const TunnelTable table = one_tunnel();
  const sim::NodeClock clock{sim::from_ms(86'400'000.0)};  // one day of offset
  TunnelSender sender{table, clock, kKey};
  net::Packet wan;
  for (int i = 0; i < 3; ++i) {  // the third packet carries sequence 2
    wan = golden_inner();
    ASSERT_TRUE(sender.wrap_inplace(wan, 1, sim::from_ms(250.0 + i)));
  }
  const auto bytes = wan.bytes();
  ASSERT_EQ(bytes.size(), 1528u);
  const std::size_t udp = net::Ipv6Header::kSize;
  const std::size_t tag = udp + net::UdpHeader::kSize + net::TangoHeader::kSize;
  const auto be16 = [&](std::size_t at) { return (bytes[at] << 8) | bytes[at + 1]; };
  std::uint64_t wire_tag = 0;
  for (std::size_t i = 0; i < 8; ++i) wire_tag = (wire_tag << 8) | bytes[tag + i];
  EXPECT_EQ(be16(udp + 6), 0x114b);
  EXPECT_EQ(wire_tag, 0x008addb1660f3fd8ull);
  EXPECT_EQ(fnv1a64(bytes), 0xb89c47bcef3a8bf5ull);

  TunnelReceiver receiver{clock, /*keep_series=*/false, kKey};
  EXPECT_TRUE(receiver.unwrap_inplace(wan, sim::from_ms(280.0)).has_value());
}

TEST(TangoHeaderParse, EveryTruncationReturnsNullopt) {
  net::TangoHeader h{.path_id = 9, .tx_time_ns = 1, .sequence = 2};
  h.flags |= net::TangoHeader::kFlagAuthenticated;
  h.auth_tag = 0xDEADBEEF;
  net::ByteWriter w;
  h.serialize(w);
  const auto full = to_vec(w.view());
  ASSERT_EQ(full.size(), h.wire_size());
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut{full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len)};
    net::ByteReader r{cut};
    EXPECT_FALSE(net::TangoHeader::parse(r).has_value()) << "accepted truncation at " << len;
  }
  net::ByteReader r{full};
  EXPECT_TRUE(net::TangoHeader::parse(r).has_value());
}

TEST(TangoHeaderParse, GarbageNeverThrowsAndNeedsMagic) {
  std::mt19937_64 rng{1234};
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> junk(40);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    net::ByteReader r{junk};
    std::optional<net::TangoHeader> parsed;
    EXPECT_NO_THROW(parsed = net::TangoHeader::parse(r));
    if (parsed) {
      // Acceptance implies the magic and version bytes were right.
      EXPECT_EQ(junk[0], net::TangoHeader::kMagic >> 8);
      EXPECT_EQ(junk[1], net::TangoHeader::kMagic & 0xFF);
      EXPECT_EQ(junk[2], net::TangoHeader::kVersion);
    }
  }
}

}  // namespace
}  // namespace tango::dataplane
