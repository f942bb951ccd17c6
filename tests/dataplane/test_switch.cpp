// TangoSwitch behaviour on the simulated Vultr WAN.
#include "dataplane/switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/vultr_scenario.hpp"

namespace tango::dataplane {
namespace {

using namespace topo::vultr;

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{99}},
        la_{kServerLa, wan_, SwitchOptions{}},
        ny_{kServerNy, wan_, SwitchOptions{}} {
    // Expose one NY tunnel prefix over the default path and install the
    // matching tunnel at LA.
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
  }

  net::Packet to_peer(std::uint16_t dport = 2000) {
    const std::vector<std::uint8_t> payload{1, 2, 3};
    return net::make_udp_packet(s_.plan.la_hosts.host(1), s_.plan.ny_hosts.host(7), 1000,
                                dport, payload);
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoSwitch la_;
  TangoSwitch ny_;
};

TEST_F(SwitchTest, PeerTrafficIsEncapsulatedMeasuredAndDelivered) {
  std::vector<net::Packet> delivered;
  std::vector<ReceiveInfo> infos;
  ny_.set_host_handler([&](const net::Packet& p, const std::optional<ReceiveInfo>& info) {
    delivered.push_back(p);
    if (info) infos.push_back(*info);
  });

  const net::Packet p = to_peer();
  la_.send_from_host(p);
  wan_.events().run_all();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.front(), p) << "inner packet must arrive byte-identical";
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos.front().path, 1);
  EXPECT_EQ(infos.front().sequence, 0u);
  EXPECT_NEAR(infos.front().owd_ms, 37.1, 1.5);  // NTT toward NY

  const PathTracker* tracker = ny_.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 1u);
}

TEST_F(SwitchTest, BurstMatchesPerPacketSendsAndCountsMixedFates) {
  // One burst carrying every fate: peer traffic (encapsulated), passthrough,
  // a no-tunnel drop and a malformed packet.  Per-packet outcomes must be
  // identical to sequential send_from_host calls; only the event dispatch is
  // batched.
  std::vector<std::pair<net::Packet, std::optional<ReceiveInfo>>> delivered;
  ny_.set_host_handler([&](const net::Packet& p, const std::optional<ReceiveInfo>& info) {
    delivered.emplace_back(p, info);
  });

  const std::vector<std::uint8_t> payload{5};
  std::vector<net::Packet> burst;
  burst.push_back(to_peer(4000));
  burst.push_back(to_peer(4001));
  burst.push_back(net::make_udp_packet(s_.plan.la_hosts.host(1),
                                       s_.plan.ny_tunnel[0].host(99), 1, 2, payload));
  burst.push_back(net::Packet{std::vector<std::uint8_t>{0xde, 0xad}});  // malformed

  const std::size_t accepted = la_.send_burst(burst);
  wan_.events().run_all();

  EXPECT_EQ(accepted, 3u) << "peer x2 + passthrough enter the WAN; malformed does not";
  ASSERT_EQ(delivered.size(), 3u);
  // Per-link jitter may reorder arrivals, so classify by Tango info rather
  // than arrival index.
  std::vector<ReceiveInfo> tango;
  std::size_t plain = 0;
  for (const auto& [p, info] : delivered) {
    if (info) {
      tango.push_back(*info);
    } else {
      ++plain;
    }
  }
  ASSERT_EQ(tango.size(), 2u) << "both peer packets carry Tango info";
  EXPECT_EQ(plain, 1u) << "passthrough arrives without Tango info";
  std::ranges::sort(tango, {}, &ReceiveInfo::sequence);
  EXPECT_EQ(tango[0].sequence, 0u);
  EXPECT_EQ(tango[1].sequence, 1u) << "burst preserves encapsulation order";
  EXPECT_EQ(la_.passthrough(), 1u);
  EXPECT_EQ(la_.sender().packets_sent(), 2u);

  // Same-timestamp batch: both peer packets left at t=0 and share the path,
  // so their one-way delays match to within link jitter.
  EXPECT_NEAR(tango[0].owd_ms, tango[1].owd_ms, 1.5);
}

TEST_F(SwitchTest, BurstWithNoUsableTunnelCountsDrops) {
  la_.set_active_path(kServerNy, 77);  // unknown tunnel: peer traffic has nowhere to go
  std::vector<net::Packet> burst;
  burst.push_back(to_peer());
  burst.push_back(to_peer());
  EXPECT_EQ(la_.send_burst(burst), 0u);
  wan_.events().run_all();
  EXPECT_EQ(la_.no_tunnel_drops(), 2u);
  EXPECT_EQ(wan_.delivered(), 0u);
}

TEST_F(SwitchTest, NonPeerTrafficPassesThrough) {
  // Traffic to a non-Tango destination (the NY tunnel prefix itself is not a
  // peer host prefix) rides plain BGP and is delivered without Tango info.
  std::uint64_t plain = 0;
  ny_.set_host_handler([&](const net::Packet&, const std::optional<ReceiveInfo>& info) {
    if (!info) ++plain;
  });

  const std::vector<std::uint8_t> payload{5};
  net::Packet p = net::make_udp_packet(s_.plan.la_hosts.host(1),
                                       s_.plan.ny_tunnel[0].host(99), 1, 2, payload);
  la_.send_from_host(p);
  wan_.events().run_all();

  EXPECT_EQ(plain, 1u);
  EXPECT_EQ(la_.passthrough(), 1u);
  EXPECT_EQ(la_.sender().packets_sent(), 0u);
}

TEST_F(SwitchTest, NoActivePathDropsAndCounts) {
  TangoSwitch fresh{kServerLa, wan_, SwitchOptions{}};
  // Steal the attachment back for this test switch.
  fresh.add_peer_prefix(s_.plan.ny_hosts, kServerNy);
  fresh.send_from_host(to_peer());
  wan_.events().run_all();
  EXPECT_EQ(fresh.no_tunnel_drops(), 1u);
}

TEST_F(SwitchTest, UnknownActivePathCountsAsNoTunnel) {
  la_.set_active_path(kServerNy, 77);
  la_.send_from_host(to_peer());
  wan_.events().run_all();
  EXPECT_EQ(la_.no_tunnel_drops(), 1u);
}

TEST_F(SwitchTest, RouteFnOverridesActivePath) {
  // Application-specific routing (§3): the route hook steers by inner dport.
  la_.tunnels().install(Tunnel{.id = 2,
                               .label = "Telia",
                               .local_endpoint = s_.plan.la_tunnel[1].host(1),
                               .remote_endpoint = s_.plan.ny_tunnel[1].host(1),
                               .remote_prefix = s_.plan.ny_tunnel[1],
                               .udp_src_port = 49154});
  s_.topo.bgp().originate(kServerNy, net::Prefix{s_.plan.ny_tunnel[1]},
                          bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt)});
  wan_.sync_fibs();

  std::vector<bgp::RouterId> asked;
  la_.set_route_fn(
      [](void* ctx, const net::Packet& inner, bgp::RouterId peer, std::uint64_t,
         sim::Time) -> TangoSwitch::RouteDecision {
        static_cast<std::vector<bgp::RouterId>*>(ctx)->push_back(peer);
        if (net::udp_dst_port(inner) == 5555) return {.primary = 2};  // latency-critical app
        return {};  // no opinion: the peer's active path
      },
      &asked);

  std::vector<PathId> seen;
  ny_.set_host_handler([&](const net::Packet&, const std::optional<ReceiveInfo>& info) {
    if (info) seen.push_back(info->path);
  });

  la_.send_from_host(to_peer(2000));  // hook declines -> active path 1
  la_.send_from_host(to_peer(5555));  // hook picks path 2
  wan_.events().run_all();

  // Telia (path 2) is faster toward NY, so it arrives first; compare as a set.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<PathId>{1, 2}));
  EXPECT_EQ(asked, (std::vector<bgp::RouterId>{kServerNy, kServerNy}))
      << "the hook is asked once per peer packet, with the matched peer";
  EXPECT_EQ(la_.active_path(kServerNy), PathId{1}) << "the hook never moves the active path";
}

TEST_F(SwitchTest, MalformedHostPacketIgnored) {
  la_.send_from_host(net::Packet{std::vector<std::uint8_t>{1, 2}});
  wan_.events().run_all();
  EXPECT_EQ(la_.sender().packets_sent(), 0u);
  EXPECT_EQ(la_.passthrough(), 0u);
}

TEST_F(SwitchTest, ClockOffsetsDoNotBreakRelativeComparison) {
  // Rebuild switches with wildly offset clocks: measured OWDs shift but the
  // by-path ordering at the receiver stays usable (constant offset).
  sim::Wan wan2{s_.topo, sim::Rng{5}};
  TangoSwitch la2{kServerLa, wan2,
                  SwitchOptions{.clock = sim::NodeClock{+50 * sim::kMillisecond}}};
  TangoSwitch ny2{kServerNy, wan2,
                  SwitchOptions{.clock = sim::NodeClock{-20 * sim::kMillisecond}}};
  la2.tunnels().install(*la_.tunnels().find(1));
  la2.add_peer_prefix(s_.plan.ny_hosts, kServerNy);
  la2.set_active_path(kServerNy, 1);
  ny2.set_host_handler([](const net::Packet&, const std::optional<ReceiveInfo>&) {});

  for (int i = 0; i < 20; ++i) la2.send_from_host(to_peer());
  wan2.events().run_all();

  const PathTracker* tracker = ny2.receiver().tracker(1);
  ASSERT_NE(tracker, nullptr);
  EXPECT_EQ(tracker->delay().lifetime().count(), 20u);
  // Apparent OWD = true OWD + (rx_offset - tx_offset) = ~37.1 - 70.
  EXPECT_NEAR(tracker->delay().lifetime().mean(), 37.1 - 70.0, 2.0);
}

TEST_F(SwitchTest, ActivePathQueriesAreScopedToTheirPeer) {
  // Each peer has its own entry: one peer's choice never answers another
  // peer's query, and a peer with no entry has no active path at all.
  TangoSwitch sw{kServerLa, wan_, SwitchOptions{}};
  EXPECT_EQ(sw.active_path(kServerNy), std::nullopt);

  sw.set_active_path(kServerNy, 7);
  EXPECT_EQ(sw.active_path(kServerNy), PathId{7});
  EXPECT_EQ(sw.active_path(kServerCh), std::nullopt)
      << "an entry for another peer must not answer this peer's query";

  sw.set_active_path(kServerCh, 3);
  EXPECT_EQ(sw.active_path(kServerCh), PathId{3});
  EXPECT_EQ(sw.active_path(kServerNy), PathId{7}) << "setting one peer leaves the other";

  sw.set_active_path(kServerNy, 9);
  EXPECT_EQ(sw.active_path(kServerNy), PathId{9});
  EXPECT_EQ(sw.active_path(kServerCh), PathId{3});
}

}  // namespace
}  // namespace tango::dataplane
