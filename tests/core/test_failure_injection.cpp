// Failure injection across the full stack: withdrawn prefixes mid-flight,
// session flaps with re-discovery, bursty loss seen by the trackers and
// acted on by a loss-aware policy.
#include <gtest/gtest.h>

#include "core/pairing.hpp"
#include "sim/events.hpp"
#include "sim/loss_model.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::core {
namespace {

using namespace topo::vultr;

NodeConfig node_config(const topo::VultrScenario& s, bgp::RouterId router) {
  const bool is_la = router == kServerLa;
  return NodeConfig{
      .router = router,
      .host_prefix = is_la ? s.plan.la_hosts : s.plan.ny_hosts,
      .tunnel_prefix_pool =
          is_la ? std::vector<net::Ipv6Prefix>{s.plan.la_tunnel.begin(), s.plan.la_tunnel.end()}
                : std::vector<net::Ipv6Prefix>{s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
      .edge_asns = {kAsnVultr, is_la ? kAsnServerLa : kAsnServerNy},
      .keep_series = true};
}

class FailureTest : public ::testing::Test {
 protected:
  FailureTest()
      : s_{topo::make_vultr_scenario()},
        wan_{s_.topo, sim::Rng{55}},
        la_{s_.topo, wan_, node_config(s_, kServerLa)},
        ny_{s_.topo, wan_, node_config(s_, kServerNy)},
        pairing_{wan_, la_, ny_} {
    pairing_.establish();
  }

  topo::VultrScenario s_;
  sim::Wan wan_;
  TangoNode la_;
  TangoNode ny_;
  TangoPairing pairing_;
};

TEST_F(FailureTest, WithdrawnTunnelPrefixBlackholesOnlyThatPath) {
  // NY withdraws the prefix naming its GTT path (path 3 of LA's outbound):
  // packets already steered onto it have no route, other paths unaffected.
  const DiscoveredPath* gtt = la_.registry().find(3);
  ASSERT_NE(gtt, nullptr);
  s_.topo.bgp().withdraw(kServerNy, net::Prefix{gtt->prefix});
  wan_.sync_fibs();

  std::uint64_t delivered = 0;
  ny_.dp().set_host_handler(
      [&delivered](const net::Packet&, const std::optional<dataplane::ReceiveInfo>&) {
        ++delivered;
      });

  const std::vector<std::uint8_t> payload{1};
  const net::Packet p = net::make_udp_packet(la_.host_address(1), ny_.host_address(1), 1, 2,
                                             payload);
  la_.dp().set_active_path(kServerNy, 3);
  la_.dp().send_from_host(p);
  wan_.events().run_all();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(wan_.dropped(sim::DropReason::no_route), 1u);

  la_.dp().set_active_path(kServerNy, 1);
  la_.dp().send_from_host(p);
  wan_.events().run_all();
  EXPECT_EQ(delivered, 1u) << "other paths keep working";
}

TEST_F(FailureTest, SessionFlapHealsAfterRediscovery) {
  // Vultr NY loses its GTT transit session entirely.
  s_.topo.bgp().remove_session(kGtt, kVultrNy);
  wan_.sync_fibs();

  // Re-run discovery: only three paths remain toward NY.
  DiscoveryResult after = la_.discover_outbound(ny_);
  ASSERT_EQ(after.paths.size(), 3u);
  EXPECT_EQ(after.paths[0].label, "NTT");
  EXPECT_EQ(after.paths[1].label, "Telia");
  EXPECT_EQ(after.paths[2].label, "NTT Cogent");
  // The vanished fourth path leaves the registry and the tunnel table too.
  EXPECT_EQ(la_.paths_to(kServerNy).size(), 3u);
  EXPECT_EQ(la_.registry().size(), 3u);
  EXPECT_EQ(la_.dp().tunnels().size(), 3u);

  // Session returns; discovery finds all four again.
  s_.topo.bgp().add_transit(kGtt, kVultrNy, 110);
  wan_.sync_fibs();
  DiscoveryResult healed = la_.discover_outbound(ny_);
  EXPECT_EQ(healed.paths.size(), 4u);
  EXPECT_EQ(la_.paths_to(kServerNy).size(), 4u);
  EXPECT_EQ(la_.registry().size(), 4u);
  EXPECT_EQ(la_.dp().tunnels().size(), 4u);
}

TEST_F(FailureTest, TrackersSeeInjectedLossAndReordering) {
  // Make the GTT backbone lossy, then push a steady stream over it.
  s_.topo.set_profile(kGtt, kVultrLa,
                      topo::LinkProfile{.base_delay_ms = 27.5,
                                        .jitter = topo::JitterKind::none,
                                        .loss_rate = 0.10});
  sim::Wan lossy_wan{s_.topo, sim::Rng{7}};
  TangoNode la2{s_.topo, lossy_wan, node_config(s_, kServerLa)};
  TangoNode ny2{s_.topo, lossy_wan, node_config(s_, kServerNy)};
  TangoPairing pairing2{lossy_wan, la2, ny2};
  pairing2.establish();

  ny2.dp().set_active_path(kServerLa, 3);  // NY->LA via the lossy GTT edge
  const std::vector<std::uint8_t> payload{9};
  for (int i = 0; i < 3000; ++i) {
    lossy_wan.events().schedule_in(i * sim::kMillisecond, [&ny2, &la2, &payload]() {
      ny2.dp().send_from_host(net::make_udp_packet(ny2.host_address(1), la2.host_address(1),
                                                   5, 6, payload));
    });
  }
  lossy_wan.events().run_all();

  const dataplane::PathTracker* tracker = la2.dp().receiver().tracker(3);
  ASSERT_NE(tracker, nullptr);
  const double measured = tracker->loss().loss_rate();
  EXPECT_NEAR(measured, 0.10, 0.025) << "sequence-based loss must track injected loss";
  // One-way delay stats unaffected by the loss.
  EXPECT_NEAR(tracker->delay().lifetime().mean(), 28.4 + 0.0, 1.0);
}

TEST_F(FailureTest, LossAwarePolicyAbandonsLossyPath) {
  // Start healthy, then GTT turns 20% lossy at t=3s (burst loss).  A
  // loss-weighted policy must leave GTT; a pure delay policy would stay.
  ny_.set_policy(std::make_unique<WeightedScorePolicy>(
      WeightedScorePolicy::Weights{.delay = 1.0, .jitter = 0.0, .loss = 500.0}));
  pairing_.start();
  ny_.start_probing(10 * sim::kMillisecond);
  la_.start_probing(10 * sim::kMillisecond);

  wan_.events().run_until(3 * sim::kSecond);
  ASSERT_EQ(ny_.dp().active_path(kServerLa), PathId{3}) << "settled on GTT while healthy";

  // GTT turns 20% bursty-lossy from t=3s.
  wan_.link(kGtt, kVultrLa)
      .set_loss(std::make_unique<sim::GilbertElliottLoss>(0.05, 0.2, 0.02, 0.8));

  wan_.events().run_until(20 * sim::kSecond);
  EXPECT_NE(ny_.dp().active_path(kServerLa), PathId{3})
      << "loss-weighted policy must abandon the lossy path";

  pairing_.stop();
  ny_.stop_probing();
  la_.stop_probing();
  wan_.events().run_all();
}

TEST_F(FailureTest, FeedbackLoopToleratesLossyControlChannel) {
  // Reports ride the same unreliable world; the loop must keep converging
  // even when many probe packets die.  10% loss on every backbone edge.
  for (bgp::Asn asn : {kAsnNtt, kAsnTelia, kAsnGtt}) {
    const topo::LinkKey key = topo::VultrScenario::backbone_to_la(asn);
    topo::LinkProfile profile = *s_.topo.profile(key.from, key.to);
    profile.loss_rate = 0.10;
    s_.topo.set_profile(key.from, key.to, profile);
  }
  sim::Wan wan2{s_.topo, sim::Rng{77}};
  TangoNode la2{s_.topo, wan2, node_config(s_, kServerLa)};
  TangoNode ny2{s_.topo, wan2, node_config(s_, kServerNy)};
  TangoPairing pairing2{wan2, la2, ny2};
  pairing2.establish();
  ny2.set_policy(std::make_unique<HysteresisPolicy>(1.0));
  pairing2.start();
  ny2.start_probing(10 * sim::kMillisecond);
  wan2.events().run_until(5 * sim::kSecond);
  pairing2.stop();
  ny2.stop_probing();
  wan2.events().run_all();

  EXPECT_EQ(ny2.dp().active_path(kServerLa), PathId{3})
      << "policy still converges on GTT through 10% loss";
  const PathReport* r = ny2.registry().report(3);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->loss_rate, 0.05) << "and the loss itself is visible in the reports";
}

}  // namespace
}  // namespace tango::core
