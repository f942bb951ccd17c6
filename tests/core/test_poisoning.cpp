// AS-path poisoning as the steering mechanism (§6's "more knobs such as
// AS-path poisoning"), and its documented semantic differences from
// community-based steering.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

DiscoveryRequest la_to_ny(const topo::VultrScenario& s, SteeringMechanism m) {
  return DiscoveryRequest{
      .destination = kServerNy,
      .source = kServerLa,
      .prefix_pool = {s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
      .edge_asns = {kAsnVultr, kAsnServerLa, kAsnServerNy},
      .mechanism = m};
}

TEST(PoisoningDiscovery, FindsFourPathsOnVultrScenario) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult r = discover_paths(s.topo, la_to_ny(s, SteeringMechanism::poisoning));

  ASSERT_EQ(r.paths.size(), 4u);
  EXPECT_EQ(r.paths[0].label, "NTT");
  EXPECT_EQ(r.paths[1].label, "Telia");
  EXPECT_EQ(r.paths[2].label, "GTT");
  // Semantic difference vs communities: poisoning NTT repels the route from
  // NTT *everywhere*, so the composite fourth path cannot transit NTT — it
  // comes back via Level3 + Cogent instead of NTT + Cogent.
  EXPECT_EQ(r.paths[3].label, "Level3 Cogent");
  EXPECT_TRUE(r.exhausted);

  // No communities used; poisoned sets grow by one target per step.
  for (const DiscoveredPath& p : r.paths) {
    EXPECT_TRUE(p.communities.empty()) << p.to_string();
  }
  EXPECT_TRUE(r.paths[0].poisoned.empty());
  EXPECT_EQ(r.paths[1].poisoned, (std::vector<bgp::Asn>{kAsnNtt}));
  EXPECT_EQ(r.paths[2].poisoned, (std::vector<bgp::Asn>{kAsnNtt, kAsnTelia}));
  EXPECT_EQ(r.paths[3].poisoned, (std::vector<bgp::Asn>{kAsnNtt, kAsnTelia, kAsnGtt}));
}

TEST(PoisoningDiscovery, ObservedPathsCarryThePoison) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult r = discover_paths(s.topo, la_to_ny(s, SteeringMechanism::poisoning));
  ASSERT_EQ(r.paths.size(), 4u);
  // Path 2 (Telia) was exposed by poisoning NTT: the plant is visible in
  // the AS path but excluded from the label.
  EXPECT_TRUE(r.paths[1].as_path.contains(kAsnNtt));
  EXPECT_EQ(r.paths[1].label, "Telia");
}

TEST(PoisoningDiscovery, SteadyStateKeepsAllPathsUsable) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult r = discover_paths(s.topo, la_to_ny(s, SteeringMechanism::poisoning));
  for (const DiscoveredPath& p : r.paths) {
    const bgp::Route* best = s.topo.bgp().best_route(kServerLa, net::Prefix{p.prefix});
    ASSERT_NE(best, nullptr) << p.to_string();
    EXPECT_EQ(best->as_path, p.as_path);
  }
}

TEST(PoisoningDiscovery, WorksWhenProvidersIgnoreCommunities) {
  // The whole point of the poisoning knob: community-deaf providers.
  // Build the scenario, then rebuild every router's community handling off.
  topo::Topology t;
  bgp::SpeakerOptions deaf{.honors_action_communities = false};
  bgp::SpeakerOptions deaf_vultr{.honors_action_communities = false,
                                 .strips_private_asns = true,
                                 .allow_own_asn_in = true};
  t.add_router(1, 2914, "NTT", deaf);
  t.add_router(2, 1299, "Telia", deaf);
  t.add_router(10, 20473, "Vultr-A", deaf_vultr);
  t.add_router(11, 20473, "Vultr-B", deaf_vultr);
  t.add_router(20, 64512, "src", deaf);
  t.add_router(21, 64513, "dst", deaf);
  t.name_asn(2914, "NTT");
  t.name_asn(1299, "Telia");
  t.add_peering(1, 2, topo::LinkProfile{}, topo::LinkProfile{});
  t.add_transit(1, 10, topo::LinkProfile{}, topo::LinkProfile{}, 120);
  t.add_transit(2, 10, topo::LinkProfile{}, topo::LinkProfile{}, 115);
  t.add_transit(1, 11, topo::LinkProfile{}, topo::LinkProfile{}, 120);
  t.add_transit(2, 11, topo::LinkProfile{}, topo::LinkProfile{}, 115);
  t.add_transit(10, 20, topo::LinkProfile{}, topo::LinkProfile{});
  t.add_transit(11, 21, topo::LinkProfile{}, topo::LinkProfile{});

  DiscoveryRequest req{.destination = 21,
                       .source = 20,
                       .prefix_pool = {*net::Ipv6Prefix::parse("2001:db8:1::/48"),
                                       *net::Ipv6Prefix::parse("2001:db8:2::/48"),
                                       *net::Ipv6Prefix::parse("2001:db8:3::/48")},
                       .edge_asns = {20473, 64512, 64513}};

  // Communities: stuck after the first path (nothing honors them).
  req.mechanism = SteeringMechanism::communities;
  DiscoveryResult via_comm = discover_paths(t, req);
  EXPECT_EQ(via_comm.paths.size(), 1u);

  // Poisoning: loop detection is mandatory BGP behaviour, so both paths
  // are enumerated.
  req.mechanism = SteeringMechanism::poisoning;
  DiscoveryResult via_poison = discover_paths(t, req);
  ASSERT_EQ(via_poison.paths.size(), 2u);
  EXPECT_EQ(via_poison.paths[0].label, "NTT");
  EXPECT_EQ(via_poison.paths[1].label, "Telia");
  EXPECT_TRUE(via_poison.exhausted);
}

TEST(PoisoningDiscovery, SuppressionTargetSkipsPoisonedAsns) {
  const std::vector<bgp::Asn> edges{20473};
  // Observed path after poisoning 2914: the plant sits at the origin end.
  const bgp::AsPath observed{20473, 1299, 20473, 2914};
  EXPECT_EQ(suppression_target(observed, edges, /*already_excluded=*/{2914}), 1299u);
  // Without the exclusion the scan would wrongly re-pick the poison.
  EXPECT_EQ(suppression_target(observed, edges), 2914u);
}

TEST(PoisoningDiscovery, NodeLevelMechanismSelection) {
  // TangoNode::discover_outbound threads the mechanism through.
  topo::VultrScenario s = topo::make_vultr_scenario();
  sim::Wan wan{s.topo, sim::Rng{4}};
  NodeConfig la_cfg{.router = kServerLa,
                          .host_prefix = s.plan.la_hosts,
                          .tunnel_prefix_pool = {s.plan.la_tunnel.begin(),
                                                 s.plan.la_tunnel.end()},
                          .edge_asns = {kAsnVultr, kAsnServerLa}};
  NodeConfig ny_cfg{.router = kServerNy,
                          .host_prefix = s.plan.ny_hosts,
                          .tunnel_prefix_pool = {s.plan.ny_tunnel.begin(),
                                                 s.plan.ny_tunnel.end()},
                          .edge_asns = {kAsnVultr, kAsnServerNy}};
  TangoNode la{s.topo, wan, la_cfg};
  TangoNode ny{s.topo, wan, ny_cfg};

  DiscoveryResult r = la.discover_outbound(ny, SteeringMechanism::poisoning);
  EXPECT_EQ(r.paths.size(), 4u);
  EXPECT_EQ(la.dp().tunnels().size(), 4u);
}

}  // namespace
}  // namespace tango::core
