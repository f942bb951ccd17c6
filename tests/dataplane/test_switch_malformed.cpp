// The switch receive path under malformed WAN input: every bad frame is
// dropped and counted by cause, nothing malformed reaches the hosts, and the
// per-path measurement state stays clean.  The committed fuzz seed corpus is
// replayed through the switch at the end, so every minimized reproducer from
// the decode-hardening pass runs in the ordinary test suite too.
#include "dataplane/switch.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "net/packet.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::dataplane {
namespace {

using namespace topo::vultr;

class SwitchMalformedTest : public ::testing::Test {
 protected:
  SwitchMalformedTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{99}},
        la_{kServerLa, wan_, SwitchOptions{}},
        ny_{kServerNy, wan_, SwitchOptions{}} {
    s_.topo.bgp().originate(kServerNy, net::Prefix{s_.plan.ny_tunnel[0]});
    wan_.sync_fibs();
    la_.tunnels().install(Tunnel{.id = 1,
                                 .label = "NTT",
                                 .local_endpoint = s_.plan.la_tunnel[0].host(1),
                                 .remote_endpoint = s_.plan.ny_tunnel[0].host(1),
                                 .remote_prefix = s_.plan.ny_tunnel[0],
                                 .udp_src_port = 49153});
    la_.add_peer_prefix(s_.plan.ny_hosts, kServerNy);
    la_.set_active_path(kServerNy, 1);
    ny_.set_host_handler([this](const net::Packet& p, const std::optional<ReceiveInfo>& info) {
      delivered_.emplace_back(p, info);
    });
  }

  /// A well-formed Tango WAN frame as the fabric would deliver it to NY.
  std::vector<std::uint8_t> wan_frame(bool authenticated = false) {
    const std::vector<std::uint8_t> payload{1, 2, 3};
    const net::Packet inner = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                                   s_.plan.ny_hosts.host(7), 1000, 2000, payload);
    net::TangoHeader th;
    th.path_id = 1;
    th.sequence = 7;
    if (authenticated) {
      th.flags |= net::TangoHeader::kFlagAuthenticated;
      th.auth_tag = 0xABCDABCDABCDABCDull;
    }
    const net::Packet wan = net::encapsulate_tango(inner, s_.plan.la_tunnel[0].host(1),
                                                   s_.plan.ny_tunnel[0].host(1), 49153, th);
    return {wan.bytes().begin(), wan.bytes().end()};
  }

  /// Rewrites the outer payload length and UDP length to match a mutated
  /// buffer and zeroes the UDP checksum, so the decode reaches the Tango
  /// header instead of failing at the envelope checks.
  static void patch_envelope(std::vector<std::uint8_t>& b) {
    const std::size_t seg = b.size() - net::Ipv6Header::kSize;
    b[4] = static_cast<std::uint8_t>(seg >> 8);
    b[5] = static_cast<std::uint8_t>(seg);
    b[net::Ipv6Header::kSize + 4] = static_cast<std::uint8_t>(seg >> 8);
    b[net::Ipv6Header::kSize + 5] = static_cast<std::uint8_t>(seg);
    b[net::Ipv6Header::kSize + 6] = 0;
    b[net::Ipv6Header::kSize + 7] = 0;
  }

  void inject(std::vector<std::uint8_t> bytes) { ny_.inject_wan(net::Packet{std::move(bytes)}); }

  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoSwitch la_;
  TangoSwitch ny_;
  std::vector<std::pair<net::Packet, std::optional<ReceiveInfo>>> delivered_;
};

TEST_F(SwitchMalformedTest, TruncatedOuterHeaderDropsAsMalformedOuter) {
  auto bytes = wan_frame();
  bytes.resize(net::Ipv6Header::kSize - 1);
  inject(std::move(bytes));
  EXPECT_EQ(ny_.malformed_outer_drops(), 1u);
  EXPECT_EQ(ny_.malformed_tango_drops(), 0u);
  EXPECT_TRUE(delivered_.empty()) << "malformed frames must never reach hosts";
}

TEST_F(SwitchMalformedTest, OuterLengthMismatchDropsAsMalformedOuter) {
  auto bytes = wan_frame();
  bytes[4] ^= 0x01;  // outer payload_length no longer matches the buffer
  inject(std::move(bytes));
  EXPECT_EQ(ny_.malformed_outer_drops(), 1u);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(SwitchMalformedTest, UdpLengthMismatchDropsAsMalformedOuter) {
  auto bytes = wan_frame();
  bytes[net::Ipv6Header::kSize + 4] ^= 0x01;
  inject(std::move(bytes));
  EXPECT_EQ(ny_.malformed_outer_drops(), 1u);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(SwitchMalformedTest, BadMagicOnTangoPortDropsAsMalformedTango) {
  auto bytes = wan_frame();
  bytes[net::Ipv6Header::kSize + net::UdpHeader::kSize] = 0x00;
  patch_envelope(bytes);
  inject(std::move(bytes));
  EXPECT_EQ(ny_.malformed_tango_drops(), 1u);
  EXPECT_EQ(ny_.malformed_outer_drops(), 0u);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(SwitchMalformedTest, TruncatedTangoHeaderDropsAsMalformedTango) {
  auto bytes = wan_frame();
  bytes.resize(net::Ipv6Header::kSize + net::UdpHeader::kSize + 10);
  patch_envelope(bytes);
  inject(std::move(bytes));
  EXPECT_EQ(ny_.malformed_tango_drops(), 1u);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(SwitchMalformedTest, TruncatedAuthTagDropsAsMalformedTango) {
  auto bytes = wan_frame(/*authenticated=*/true);
  bytes.resize(net::Ipv6Header::kSize + net::UdpHeader::kSize + net::TangoHeader::kSize + 4);
  patch_envelope(bytes);
  inject(std::move(bytes));
  EXPECT_EQ(ny_.malformed_tango_drops(), 1u);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(SwitchMalformedTest, NonTangoTrafficIsStillDeliveredPlain) {
  // A UDP packet to another port is foreign traffic, not a malformed frame.
  const std::vector<std::uint8_t> payload{9};
  const net::Packet p = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                             s_.plan.ny_hosts.host(7), 1000, 2000, payload);
  ny_.inject_wan(p);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_FALSE(delivered_.front().second.has_value());
  EXPECT_EQ(ny_.malformed_drops(), 0u);
}

TEST_F(SwitchMalformedTest, MalformedFramesDoNotCorruptMeasurementState) {
  // Interleave malformed frames with a real exchange: the per-path tracker
  // must see exactly the clean packets, and the drop counters exactly the
  // garbage.
  for (int i = 0; i < 5; ++i) {
    auto junk = wan_frame();
    junk[4] ^= 0x01;
    inject(std::move(junk));
    auto bad_magic = wan_frame();
    bad_magic[net::Ipv6Header::kSize + net::UdpHeader::kSize] = 0x00;
    patch_envelope(bad_magic);
    inject(std::move(bad_magic));

    const std::vector<std::uint8_t> payload{1, 2, 3};
    la_.send_from_host(net::make_udp_packet(s_.plan.la_hosts.host(1),
                                            s_.plan.ny_hosts.host(7), 1000, 2000, payload));
  }
  wan_.events().run_all();

  EXPECT_EQ(ny_.malformed_outer_drops(), 5u);
  EXPECT_EQ(ny_.malformed_tango_drops(), 5u);
  EXPECT_EQ(ny_.malformed_drops(), 10u);
  ASSERT_EQ(delivered_.size(), 5u);
  for (const auto& [p, info] : delivered_) {
    ASSERT_TRUE(info.has_value()) << "only the clean Tango packets are delivered";
  }
  const PathTracker* tracker = ny_.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 5u)
      << "malformed frames must not feed the delay tracker";
  EXPECT_EQ(tracker->loss().received(), 5u);
}

#ifdef TANGO_CORPUS_DIR
TEST_F(SwitchMalformedTest, FuzzCorpusReplayLeavesSwitchConsistent) {
  // Every committed seed — valid packets and minimized reproducers alike —
  // goes through the receive path.  The switch must survive all of them and
  // afterwards still run a clean exchange with correct measurement state.
  namespace fs = std::filesystem;
  std::size_t replayed = 0;
  for (const char* sub : {"tango", "ipv6_udp", "ipv4"}) {
    const fs::path dir = fs::path{TANGO_CORPUS_DIR} / sub;
    ASSERT_TRUE(fs::is_directory(dir)) << dir << " missing; run gen_fuzz_corpus";
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in{entry.path(), std::ios::binary};
      std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                      std::istreambuf_iterator<char>{}};
      inject(std::move(bytes));
      ++replayed;
    }
  }
  EXPECT_GE(replayed, 16u) << "corpus unexpectedly small";
  // The four tango reproducers all land in a malformed counter.
  EXPECT_GE(ny_.malformed_drops(), 4u);

  const std::size_t delivered_during_replay = delivered_.size();
  const PathTracker* replay_tracker = ny_.receiver().tracker(2);
  const std::uint64_t replay_count =
      replay_tracker != nullptr ? replay_tracker->delay().lifetime().count() : 0;

  // Clean exchange after the replay: byte-identical delivery, tracker counts
  // only the clean packet on its path.
  const std::vector<std::uint8_t> payload{42};
  const net::Packet p = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                             s_.plan.ny_hosts.host(7), 1000, 2000, payload);
  la_.send_from_host(p);
  wan_.events().run_all();
  ASSERT_EQ(delivered_.size(), delivered_during_replay + 1);
  EXPECT_EQ(delivered_.back().first, p);
  ASSERT_TRUE(delivered_.back().second.has_value());
  EXPECT_EQ(delivered_.back().second->path, 1);
  const PathTracker* tracker = ny_.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 1u);
  if (replay_tracker != nullptr) {
    EXPECT_EQ(replay_tracker->delay().lifetime().count(), replay_count)
        << "the clean exchange must not touch the corpus seeds' path state";
  }
}
#endif

}  // namespace
}  // namespace tango::dataplane
