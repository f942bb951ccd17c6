// mesh_churn: the N-site overlay of paper §6 (E14/E15, shrunk to run many
// times).  A generated Gao-Rexford mesh of 128 routers carries 12 Tango
// sites on stub routers with a full TangoMesh::establish.  Overlay traffic
// of 64-byte payloads flows between random site pairs while feedback,
// probing and the hysteresis policy run, and BGP churn is interleaved:
// stub prefix flaps and stub uplink session flaps, each followed by
// Wan::sync_fibs.  The only workload where BGP, FIB sync and discovery
// dominate, and the only one with the mesh-wide feedback tick.
//
// The mesh's wiring is part of the workload (fixed generator seed); the
// run seed draws the traffic pairs, the churn schedule and the WAN's RNG.
// Churn only touches stubs that host no site: the overlay's routes stay
// up, so every offered packet must arrive.
#include <memory>
#include <optional>
#include <set>

#include "bench.hpp"
#include "core/mesh.hpp"
#include "topo/mesh_gen.hpp"

namespace perfbench {
namespace {

using namespace tango;

constexpr std::size_t kMeshSetups = 4;
constexpr std::size_t kSites = 12;
/// Two pool prefixes per inbound pair: up to two paths per direction, so the
/// hysteresis policy has a choice.
constexpr std::size_t kPoolPerSite = 2 * (kSites - 1);
constexpr std::uint64_t kMeshWiringSeed = 1;
constexpr sim::Time kProbePeriod = 20 * sim::kMillisecond;

[[nodiscard]] topo::MeshParams mesh_params() {
  return topo::MeshParams{.tier1 = 6,
                          .tier2 = 22,
                          .stubs = 100,
                          .prefixes_per_stub = 4,
                          .seed = kMeshWiringSeed};
}

/// One built mesh; declaration order is dependency order, so destruction
/// runs in reverse (overlay, nodes, WAN, topology).
struct MeshInstance {
  std::optional<topo::Topology> topo;
  topo::Mesh mesh;
  std::optional<sim::Wan> wan;
  std::vector<std::unique_ptr<core::TangoNode>> nodes;
  std::vector<const core::TangoNode*> site_nodes;  ///< the same nodes, for the checks
  std::optional<core::TangoMesh> overlay;
  std::vector<core::DiscoveryResult> results;
  SetupCounts setup;

  explicit MeshInstance(std::uint64_t seed) {
    std::vector<topo::MeshSitePlan> plans;
    {
      ScopedSpan span{SpanId::topo_build};
      topo.emplace();
      mesh = topo::generate_mesh(*topo, mesh_params());
      plans = topo::plan_mesh_sites(*topo, mesh, kSites, kPoolPerSite);
      topo->bgp().set_message_limit(200'000'000);
      topo->bgp().set_batched_delivery(true);
    }
    const std::uint64_t msgs0 = topo->bgp().total_messages();
    const std::uint64_t runs0 = topo->bgp().convergence_runs();
    {
      ScopedSpan span{SpanId::bgp_flood};
      topo->bgp().run_to_convergence();
    }
    {
      ScopedSpan span{SpanId::sim_wan_build};
      wan.emplace(*topo, sim::Rng{stream_seed(seed, 0)}, sim::WanOptions{});
    }
    overlay.emplace(*wan);
    nodes.reserve(plans.size());
    for (const auto& plan : plans) {
      nodes.push_back(std::make_unique<core::TangoNode>(
          *topo, *wan,
          core::NodeConfig{.router = plan.router,
                           .host_prefix = plan.hosts,
                           .tunnel_prefix_pool = plan.tunnel_pool,
                           .edge_asns = {plan.asn}}));
      overlay->add_site(*nodes.back());
      site_nodes.push_back(nodes.back().get());
    }
    {
      ScopedSpan span{SpanId::core_establish};
      results = overlay->establish(core::SteeringMechanism::communities,
                                   core::EstablishMode::interleaved);
    }
    setup.bgp_messages = topo->bgp().total_messages() - msgs0;
    setup.convergence_runs = topo->bgp().convergence_runs() - runs0;
    setup.paths = overlay->establish_stats().paths;
  }
};

class MeshChurn final : public Workload {
 public:
  static constexpr std::size_t kPayload = 64;
  static constexpr sim::Time kTick = 5 * sim::kMillisecond;
  static constexpr std::size_t kTicksPerLap = 20;
  static constexpr std::size_t kPairsPerTick = 8;
  static constexpr std::size_t kPacketsPerPair = 8;
  static constexpr std::size_t kChurnEvery = 2;  ///< ticks between churn operations
  static constexpr double kLapsPerSecond = 14.0;

  explicit MeshChurn(const RunSpec& spec)
      : spec_{spec}, laps_{lap_count(spec, kLapsPerSecond)}, payload_(kPayload, 0xA5) {
    lap_pairs_.reserve(kTicksPerLap * kPairsPerTick);
  }

  void build() override { m_ = std::make_unique<MeshInstance>(spec_.seed); }
  void teardown() override { m_.reset(); }
  [[nodiscard]] std::size_t setup_repeats() const override { return kMeshSetups; }

  void warm_up() override {
    MeshInstance& m = *m_;
    reset_sink();
    AppSink* sink = &this->sink();
    sim::Wan* wan = &*m.wan;
    for (auto& node : m.nodes) {
      node->set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
      node->dp().set_host_handler(
          [sink, wan](const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>&) {
            ScopedSpan span{SpanId::bench_deliver};
            sink->on_packet(inner, wan->now());
          });
    }
    // Churn targets: stubs without a site, and the /24s they originate.
    const std::uint32_t site_stubs = kSites;
    const auto churn_stubs = static_cast<std::uint32_t>(m.mesh.stubs.size()) - site_stubs;
    const auto per_stub = static_cast<std::uint32_t>(mesh_params().prefixes_per_stub);
    churn_ = churn_schedule(stream_seed(spec_.seed, 2), laps_ * kTicksPerLap / kChurnEvery,
                            churn_stubs * per_stub, churn_stubs);
    for (ChurnOp& op : churn_) {
      op.target += op.kind == ChurnOp::Kind::prefix_flap ? site_stubs * per_stub : site_stubs;
    }
    next_churn_ = 0;
    traffic_rng_.emplace(stream_seed(spec_.seed, 3));
    m.overlay->start();
    m.overlay->start_probing(kProbePeriod);
    lap_start_ = wan->now();
    // Two laps of traffic without churn: reports populate, pools fill.
    for (int lap = 0; lap < 2; ++lap) {
      draw_pairs();
      run_ticks(/*churn=*/false);
    }
    sink->start_measuring();
  }

  [[nodiscard]] std::size_t laps() const override { return laps_; }
  void prepare_lap(std::size_t) override {
    draw_pairs();
    sink().reserve(lap_pairs_.size() * kPacketsPerPair);
  }
  void run_lap(std::size_t) override { run_ticks(/*churn=*/true); }

  void drain() override {
    MeshInstance& m = *m_;
    m.wan->run_until(m.wan->now() + 500 * sim::kMillisecond);
    m.overlay->stop();
    m.overlay->stop_probing();
    m.wan->run_all();
  }

  [[nodiscard]] Counters counters() override {
    return read_counters(*m_->wan, m_->topo->bgp(), m_->site_nodes,
                         m_->overlay->reports_delivered());
  }
  [[nodiscard]] SetupCounts setup_counts() const override { return m_->setup; }

  void check(std::vector<std::string>& v) const override {
    const MeshInstance& m = *m_;
    const std::size_t want = kSites * (kSites - 1);
    const core::MeshEstablishStats& es = m.overlay->establish_stats();
    if (es.directions != want || m.results.size() != want) {
      v.push_back("mesh established " + std::to_string(es.directions) + " directions, expected " +
                  std::to_string(want));
    }
    std::set<core::PathId> ids;
    std::size_t pathless = 0;
    for (const auto& r : m.results) {
      if (r.paths.empty()) ++pathless;
      for (const auto& p : r.paths) ids.insert(p.id);
    }
    if (pathless != 0) v.push_back(std::to_string(pathless) + " mesh directions without a path");
    if (ids.size() != es.paths || ids.empty() || *ids.begin() != 1 || *ids.rbegin() != es.paths) {
      v.push_back("mesh path ids are not compact and disjoint");
    }
    check_deployment(*m.wan, m.site_nodes, m.overlay->reports_delivered(),
                     /*late_replays_possible=*/false, v);
    if (next_churn_ != churn_.size()) v.push_back("churn schedule not fully applied");
  }

 private:
  /// Draws one lap of (source, destination) site pairs.
  void draw_pairs() {
    lap_pairs_.clear();
    for (std::size_t i = 0; i < kTicksPerLap * kPairsPerTick; ++i) {
      const auto src = static_cast<std::uint32_t>(traffic_rng_->below(kSites));
      auto dst = static_cast<std::uint32_t>(traffic_rng_->below(kSites - 1));
      if (dst >= src) ++dst;
      lap_pairs_.emplace_back(src, dst);
    }
  }

  void run_ticks(bool churn) {
    MeshInstance& m = *m_;
    for (std::size_t t = 0; t < kTicksPerLap; ++t) {
      const sim::Time now = lap_start_ + static_cast<sim::Time>(t) * kTick;
      if (churn && t % kChurnEvery == 0) apply_churn(churn_[next_churn_++]);
      for (std::size_t p = 0; p < kPairsPerTick; ++p) {
        const auto [si, di] = lap_pairs_[t * kPairsPerTick + p];
        core::TangoNode& src = *m.nodes[si];
        core::TangoNode& dst = *m.nodes[di];
        for (std::size_t i = 0; i < kPacketsPerPair; ++i) {
          net::Packet pkt;
          {
            ScopedSpan span{SpanId::bench_gen};
            sink().stamp(payload_, now);
            pkt = net::make_udp_packet(m.wan->buffer_pool(), src.host_address(2 + i),
                                       dst.host_address(2 + i),
                                       static_cast<std::uint16_t>(40000 + i), AppSink::kPort,
                                       payload_);
          }
          ScopedSpan span{SpanId::dataplane_send};
          src.dp().send_from_host(std::move(pkt));
        }
      }
      ScopedSpan span{SpanId::sim_run};
      m.wan->run_until(now + kTick);
    }
    lap_start_ += static_cast<sim::Time>(kTicksPerLap) * kTick;
  }

  void apply_churn(const ChurnOp& op) {
    MeshInstance& m = *m_;
    bgp::BgpNetwork& bgp = m.topo->bgp();
    {
      ScopedSpan span{SpanId::bgp_churn};
      if (op.kind == ChurnOp::Kind::prefix_flap) {
        const auto& [stub, prefix] = m.mesh.originations[op.target];
        bgp.withdraw(stub, prefix);
        bgp.originate(stub, prefix);
      } else {
        const bgp::RouterId stub = m.mesh.stubs[op.target];
        const std::vector<bgp::RouterId> uplinks = bgp.router(stub).neighbors();
        const bgp::RouterId provider = uplinks[op.uplink % uplinks.size()];
        bgp.remove_session(stub, provider);
        bgp.add_transit(provider, stub, op.preference);
      }
    }
    ScopedSpan span{SpanId::sim_fib_sync};
    m.wan->sync_fibs();
  }

  RunSpec spec_;
  std::size_t laps_;
  std::vector<std::uint8_t> payload_;
  std::unique_ptr<MeshInstance> m_;
  std::vector<ChurnOp> churn_;
  std::size_t next_churn_ = 0;
  std::optional<Rng> traffic_rng_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lap_pairs_;
  sim::Time lap_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_mesh_churn(const RunSpec& spec) {
  return std::make_unique<MeshChurn>(spec);
}

}  // namespace perfbench
