// The §4.1 discovery algorithm must reproduce Fig. 3 exactly on the Vultr
// scenario, and behave sanely on edge-case topologies.
#include "core/discovery.hpp"

#include <gtest/gtest.h>

#include <set>

#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

DiscoveryRequest la_to_ny_request(const topo::VultrScenario& s) {
  return DiscoveryRequest{
      .destination = kServerNy,
      .source = kServerLa,
      .prefix_pool = {s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
      .edge_asns = {kAsnVultr, kAsnServerLa, kAsnServerNy}};
}

DiscoveryRequest ny_to_la_request(const topo::VultrScenario& s) {
  return DiscoveryRequest{
      .destination = kServerLa,
      .source = kServerNy,
      .prefix_pool = {s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()},
      .edge_asns = {kAsnVultr, kAsnServerLa, kAsnServerNy}};
}

TEST(SuppressionTarget, PicksTransitAdjacentToDestination) {
  const std::vector<bgp::Asn> edges{20473, 64512};
  EXPECT_EQ(suppression_target(bgp::AsPath{20473, 2914, 20473}, edges), 2914u);
  EXPECT_EQ(suppression_target(bgp::AsPath{20473, 2914, 174, 20473}, edges), 174u);
  EXPECT_EQ(suppression_target(bgp::AsPath{2914, 20473}, edges), 2914u);
  EXPECT_FALSE(suppression_target(bgp::AsPath{20473, 64512}, edges).has_value());
  EXPECT_FALSE(suppression_target(bgp::AsPath{}, edges).has_value());
}

TEST(Discovery, ReproducesFig3LaToNy) {
  // Paper: traffic LA->NY can ride (i) NTT (ii) Telia (iii) GTT
  // (iv) NTT+Cogent, in Vultr preference order.
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult r = discover_paths(s.topo, la_to_ny_request(s));

  ASSERT_EQ(r.paths.size(), 4u);
  EXPECT_EQ(r.paths[0].label, "NTT");
  EXPECT_EQ(r.paths[1].label, "Telia");
  EXPECT_EQ(r.paths[2].label, "GTT");
  EXPECT_EQ(r.paths[3].label, "NTT Cogent");
  EXPECT_TRUE(r.exhausted) << "termination must be by unreachability, not pool exhaustion";

  // AS paths as the LA server sees them.
  EXPECT_EQ(r.paths[0].as_path, (bgp::AsPath{20473, 2914, 20473}));
  EXPECT_EQ(r.paths[1].as_path, (bgp::AsPath{20473, 1299, 20473}));
  EXPECT_EQ(r.paths[2].as_path, (bgp::AsPath{20473, 3257, 20473}));
  EXPECT_EQ(r.paths[3].as_path, (bgp::AsPath{20473, 2914, 174, 20473}));

  // Community sets grow one suppression at a time (paper's iteration).
  EXPECT_TRUE(r.paths[0].communities.empty());
  EXPECT_EQ(r.paths[1].communities,
            (bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt)}));
  EXPECT_EQ(r.paths[2].communities,
            (bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt),
                               bgp::action::do_not_announce_to(kAsnTelia)}));
  EXPECT_EQ(r.paths[3].communities,
            (bgp::CommunitySet{bgp::action::do_not_announce_to(kAsnNtt),
                               bgp::action::do_not_announce_to(kAsnTelia),
                               bgp::action::do_not_announce_to(kAsnGtt)}));

  // Steps: 4 successes + 1 unreachable probe = 5, last has no observation.
  ASSERT_EQ(r.steps.size(), 5u);
  EXPECT_FALSE(r.steps.back().observed.has_value());
  EXPECT_GT(r.bgp_messages, 0u);

  // Path ids are sequential from 1.
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    EXPECT_EQ(r.paths[i].id, static_cast<PathId>(i + 1));
  }
}

TEST(Discovery, ReproducesFig3NyToLa) {
  // Paper: NY->LA rides (i) NTT (ii) Telia (iii) GTT (iv) Level3.
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult r = discover_paths(s.topo, ny_to_la_request(s));

  ASSERT_EQ(r.paths.size(), 4u);
  EXPECT_EQ(r.paths[0].label, "NTT");
  EXPECT_EQ(r.paths[1].label, "Telia");
  EXPECT_EQ(r.paths[2].label, "GTT");
  EXPECT_EQ(r.paths[3].label, "NTT Level3");
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.paths[3].as_path, (bgp::AsPath{20473, 2914, 3356, 20473}));
}

TEST(Discovery, SteadyStateLeavesAllPathsUsable) {
  // After discovery, every recorded prefix must still be reachable from the
  // source over its own distinct route (prefixes-as-routes steady state).
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult r = discover_paths(s.topo, la_to_ny_request(s));

  std::set<std::string> distinct_paths;
  for (const DiscoveredPath& p : r.paths) {
    const bgp::Route* best = s.topo.bgp().best_route(kServerLa, net::Prefix{p.prefix});
    ASSERT_NE(best, nullptr) << p.to_string();
    EXPECT_EQ(best->as_path, p.as_path)
        << "steady-state route must match what discovery recorded";
    distinct_paths.insert(best->as_path.to_string());
  }
  EXPECT_EQ(distinct_paths.size(), 4u) << "all four paths simultaneously distinct";
}

TEST(Discovery, BothDirectionsCompose) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryResult fwd = discover_paths(s.topo, la_to_ny_request(s));
  DiscoveryResult rev = discover_paths(s.topo, ny_to_la_request(s));
  EXPECT_EQ(fwd.paths.size(), 4u);
  EXPECT_EQ(rev.paths.size(), 4u);
  // Forward steady state must survive the reverse run.
  for (const DiscoveredPath& p : fwd.paths) {
    EXPECT_NE(s.topo.bgp().best_route(kServerLa, net::Prefix{p.prefix}), nullptr);
  }
}

TEST(Discovery, PoolExhaustionStopsEarly) {
  topo::VultrScenario s = topo::make_vultr_scenario();
  DiscoveryRequest req = la_to_ny_request(s);
  req.prefix_pool.resize(2);  // only two prefixes available
  DiscoveryResult r = discover_paths(s.topo, req);
  EXPECT_EQ(r.paths.size(), 2u);
  EXPECT_FALSE(r.exhausted);
  EXPECT_EQ(r.paths[0].label, "NTT");
  EXPECT_EQ(r.paths[1].label, "Telia");
}

TEST(Discovery, SingleHomedSingleTransitFindsOnePath) {
  // Minimal world: origin -> provider -> observer.  One path, then
  // suppression kills reachability.
  topo::Topology t;
  t.add_router(1, 100, "transit");
  t.add_router(2, 200, "dst");
  t.add_router(3, 300, "src");
  t.add_transit(1, 2, topo::LinkProfile{}, topo::LinkProfile{});
  t.add_transit(1, 3, topo::LinkProfile{}, topo::LinkProfile{});

  DiscoveryRequest req{.destination = 2,
                       .source = 3,
                       .prefix_pool = {*net::Ipv6Prefix::parse("2001:db8:1::/48"),
                                       *net::Ipv6Prefix::parse("2001:db8:2::/48")},
                       .edge_asns = {200, 300}};
  DiscoveryResult r = discover_paths(t, req);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].as_path, (bgp::AsPath{100, 200}));
  EXPECT_TRUE(r.exhausted);
}

TEST(Discovery, UnreachableDestinationYieldsNothing) {
  topo::Topology t;
  t.add_router(1, 100, "isolated-dst");
  t.add_router(2, 200, "isolated-src");
  DiscoveryRequest req{.destination = 1,
                       .source = 2,
                       .prefix_pool = {*net::Ipv6Prefix::parse("2001:db8:1::/48")},
                       .edge_asns = {}};
  DiscoveryResult r = discover_paths(t, req);
  EXPECT_TRUE(r.paths.empty());
  EXPECT_TRUE(r.exhausted);
}

TEST(Discovery, StopsWhenProviderIgnoresCommunities) {
  // Providers that ignore action communities (and an edge router whose own
  // export filter does not honor them either): suppression has no effect,
  // the observed route repeats, and discovery stops without duplicates.
  topo::Topology t;
  bgp::SpeakerOptions deaf{.honors_action_communities = false};
  t.add_router(1, 100, "deaf-transit", deaf);
  t.add_router(2, 200, "dst", deaf);
  t.add_router(3, 300, "src");
  t.add_router(4, 400, "transit2", deaf);
  t.add_transit(1, 2, topo::LinkProfile{}, topo::LinkProfile{});
  t.add_transit(4, 2, topo::LinkProfile{}, topo::LinkProfile{});
  t.add_transit(1, 3, topo::LinkProfile{}, topo::LinkProfile{});
  t.add_transit(4, 3, topo::LinkProfile{}, topo::LinkProfile{});

  DiscoveryRequest req{.destination = 2,
                       .source = 3,
                       .prefix_pool = {*net::Ipv6Prefix::parse("2001:db8:1::/48"),
                                       *net::Ipv6Prefix::parse("2001:db8:2::/48"),
                                       *net::Ipv6Prefix::parse("2001:db8:3::/48")},
                       .edge_asns = {200, 300}};
  DiscoveryResult r = discover_paths(t, req);
  EXPECT_EQ(r.paths.size(), 1u) << "no duplicate paths when suppression is ignored";
  EXPECT_FALSE(r.exhausted);
}

}  // namespace
}  // namespace tango::core
