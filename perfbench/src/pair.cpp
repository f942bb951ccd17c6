// The two LA<->NY pair workloads (paper §4-5): the Vultr scenario with its
// four discovered paths each way.
//
//  * pair_min_burst — 64 flows of 64-byte payloads, LA->NY, one send_burst
//    every 25 us of simulated time (~10^5 packets in flight), no auth key,
//    failover routing (the BGP default path, left only if quarantined).  At
//    the smallest packet the per-packet fixed cost, the scheduler and the
//    forwarding loop dominate.
//  * pair_mtu_auth — the pair keyed with one SipHash key; NY->LA Poisson
//    flow arrivals with Pareto sizes, 1400-byte payloads, ~20k pkt/s
//    simulated, each packet sent by send_from_host at its due time; NY's
//    policy engine splits flowlets by weight; the Fig. 4 route change and
//    instability hit GTT mid-run.  Every payload byte is checksummed and
//    MACed on both ends and every packet takes a flowlet decision, while
//    only hundreds of packets are in flight.
//
// Simulated links are made lossless: random loss is not a program failure,
// and without it every offered packet must arrive.
#include <array>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/pairing.hpp"
#include "net/siphash.hpp"
#include "sim/events.hpp"
#include "topo/vultr_scenario.hpp"

namespace perfbench {
namespace {

using namespace tango;
using namespace tango::topo::vultr;

constexpr std::size_t kPairSetups = 11;
constexpr sim::Time kProbePeriod = 10 * sim::kMillisecond;

/// One built pair.  Members are constructed one by one so each layer's
/// set-up cost lands in its own span; declaration order is dependency order
/// (the pairing and nodes reference the WAN, which references the topology),
/// so destruction runs in reverse.
struct PairInstance {
  std::optional<topo::VultrScenario> scenario;
  std::optional<sim::Wan> wan;
  std::optional<core::TangoNode> la;
  std::optional<core::TangoNode> ny;
  std::optional<core::TangoPairing> pairing;
  core::DiscoveryResult la_out;
  core::DiscoveryResult ny_out;
  SetupCounts setup;

  PairInstance(std::uint64_t seed, std::optional<net::SipHashKey> key) {
    {
      ScopedSpan span{SpanId::topo_build};
      scenario.emplace(topo::make_vultr_scenario());
    }
    const std::uint64_t msgs0 = scenario->topo.bgp().total_messages();
    const std::uint64_t runs0 = scenario->topo.bgp().convergence_runs();
    {
      ScopedSpan span{SpanId::sim_wan_build};
      wan.emplace(scenario->topo, sim::Rng{stream_seed(seed, 0)}, sim::WanOptions{});
      for (const topo::LinkKey& k : scenario->topo.links()) {
        wan->link(k.from, k.to).set_loss(std::make_unique<sim::BernoulliLoss>(0.0));
      }
    }
    const auto& plan = scenario->plan;
    la.emplace(scenario->topo, *wan,
               core::NodeConfig{.router = kServerLa,
                                .host_prefix = plan.la_hosts,
                                .tunnel_prefix_pool = {plan.la_tunnel.begin(), plan.la_tunnel.end()},
                                .edge_asns = {kAsnVultr, kAsnServerLa},
                                .clock = sim::NodeClock{500 * sim::kMicrosecond},
                                .auth_key = key,
                                .name = "la"});
    ny.emplace(scenario->topo, *wan,
               core::NodeConfig{.router = kServerNy,
                                .host_prefix = plan.ny_hosts,
                                .tunnel_prefix_pool = {plan.ny_tunnel.begin(), plan.ny_tunnel.end()},
                                .edge_asns = {kAsnVultr, kAsnServerNy},
                                .clock = sim::NodeClock{-300 * sim::kMicrosecond},
                                .auth_key = key,
                                .name = "ny"});
    pairing.emplace(*wan, *la, *ny);
    {
      ScopedSpan span{SpanId::core_establish};
      auto [a, b] = pairing->establish();
      la_out = std::move(a);
      ny_out = std::move(b);
    }
    setup.bgp_messages = scenario->topo.bgp().total_messages() - msgs0;
    setup.convergence_runs = scenario->topo.bgp().convergence_runs() - runs0;
    setup.paths = la_out.paths.size() + ny_out.paths.size();
  }

  [[nodiscard]] std::array<const core::TangoNode*, 2> nodes() const { return {&*la, &*ny}; }

  Counters counters() {
    return read_counters(*wan, scenario->topo.bgp(), nodes(), pairing->reports_delivered());
  }

  /// Honest-run invariants shared by both pair workloads.
  void check(std::vector<std::string>& v, bool late_replays_possible) const {
    if (la_out.paths.size() != 4 || ny_out.paths.size() != 4) {
      v.push_back("pair discovered " + std::to_string(la_out.paths.size()) + " LA->NY and " +
                  std::to_string(ny_out.paths.size()) + " NY->LA paths, expected 4 each (Fig. 3)");
    }
    check_deployment(*wan, nodes(), pairing->reports_delivered(), late_replays_possible, v);
  }
};

/// Shared set-up and teardown of the pair workloads.
class PairWorkload : public Workload {
 public:
  explicit PairWorkload(const RunSpec& spec) : spec_{spec} {}

  void build() override { pair_ = std::make_unique<PairInstance>(spec_.seed, key()); }
  void teardown() override { pair_.reset(); }
  [[nodiscard]] std::size_t setup_repeats() const override { return kPairSetups; }
  /// About 100 spare set-ups per 10-second run.
  [[nodiscard]] std::size_t laps_per_spare_setup() const override { return 8; }
  [[nodiscard]] Counters counters() override { return pair_->counters(); }
  [[nodiscard]] SetupCounts setup_counts() const override { return pair_->setup; }

 protected:
  [[nodiscard]] virtual std::optional<net::SipHashKey> key() const { return std::nullopt; }

  /// Fresh accounting wired to `receiver`'s host handler.
  void attach_sink(core::TangoNode& receiver) {
    reset_sink();
    AppSink* sink = &this->sink();
    sim::Wan* wan = &*pair_->wan;
    receiver.dp().set_host_handler(
        [sink, wan](const net::Packet& inner, const std::optional<dataplane::ReceiveInfo>&) {
          ScopedSpan span{SpanId::bench_deliver};
          sink->on_packet(inner, wan->now());
        });
  }

  void start_loops() {
    pair_->pairing->start();
    pair_->la->start_probing(kProbePeriod);
    pair_->ny->start_probing(kProbePeriod);
  }

  void stop_loops(sim::Time settle) {
    pair_->wan->run_until(pair_->wan->now() + settle);
    pair_->pairing->stop();
    pair_->la->stop_probing();
    pair_->ny->stop_probing();
    pair_->wan->run_all();
  }

  RunSpec spec_;
  std::unique_ptr<PairInstance> pair_;
};

// --- pair_min_burst --------------------------------------------------------------

class PairMinBurst final : public PairWorkload {
 public:
  static constexpr std::size_t kFlows = 64;
  static constexpr std::size_t kPayload = 64;
  static constexpr sim::Time kRound = 25 * sim::kMicrosecond;
  /// 100 rounds = 2.5 ms simulated = 6,400 packets per lap: short laps
  /// catch the host's brief quiet spells (see README.md, Noise).
  static constexpr std::size_t kRoundsPerLap = 100;
  static constexpr double kLapsPerSecond = 80.0;

  explicit PairMinBurst(const RunSpec& spec)
      : PairWorkload{spec}, laps_{lap_count(spec, kLapsPerSecond)}, payload_(kPayload, 0x42) {
    burst_.reserve(kFlows);
  }

  void build() override {
    PairWorkload::build();
    PairInstance& p = *pair_;
    // Failover routing: stay on the BGP default path unless the health
    // monitor quarantines it.
    p.la->set_policy(std::make_unique<core::BgpDefaultPolicy>(p.la_out.paths.front().id));
    p.ny->set_policy(std::make_unique<core::BgpDefaultPolicy>(p.ny_out.paths.front().id));
    srcs_.clear();
    dsts_.clear();
    for (std::size_t f = 0; f < kFlows; ++f) {
      srcs_.push_back(p.la->host_address(0x100 + f));
      dsts_.push_back(p.scenario->plan.ny_hosts.host(0x200 + f));
    }
  }

  void warm_up() override {
    attach_sink(*pair_->ny);
    start_loops();
    next_round_at_ = pair_->wan->now();
    // 160 ms: four WAN crossings fill the pipe to its steady in-flight
    // population and warm the buffer pool.
    for (std::size_t r = 0; r < 6400; ++r) round();
    sink().start_measuring();
  }

  [[nodiscard]] std::size_t laps() const override { return laps_; }
  void prepare_lap(std::size_t) override { sink().reserve(kRoundsPerLap * kFlows); }
  void run_lap(std::size_t) override {
    for (std::size_t r = 0; r < kRoundsPerLap; ++r) round();
  }
  void drain() override { stop_loops(200 * sim::kMillisecond); }

  void check(std::vector<std::string>& v) const override { pair_->check(v, false); }

 private:
  void round() {
    PairInstance& p = *pair_;
    const sim::Time now = next_round_at_;
    {
      ScopedSpan span{SpanId::bench_gen};
      for (std::size_t f = 0; f < kFlows; ++f) {
        sink().stamp(payload_, now);
        burst_.push_back(net::make_udp_packet(p.wan->buffer_pool(), srcs_[f], dsts_[f],
                                              static_cast<std::uint16_t>(40000 + f),
                                              AppSink::kPort, payload_));
      }
    }
    {
      ScopedSpan span{SpanId::dataplane_send};
      p.la->dp().send_burst(burst_);
    }
    burst_.clear();
    next_round_at_ += kRound;
    ScopedSpan span{SpanId::sim_run};
    p.wan->run_until(next_round_at_);
  }

  std::size_t laps_;
  std::vector<std::uint8_t> payload_;
  std::vector<net::Packet> burst_;
  std::vector<net::Ipv6Address> srcs_;
  std::vector<net::Ipv6Address> dsts_;
  sim::Time next_round_at_ = 0;
};

// --- pair_mtu_auth -------------------------------------------------------------------

class PairMtuAuth final : public PairWorkload {
 public:
  static constexpr std::size_t kPayload = 1400;
  /// 250 ms simulated (~5,000 packets) per lap.
  static constexpr sim::Time kLap = 250 * sim::kMillisecond;
  static constexpr double kLapsPerSecond = 40.0;
  static constexpr sim::Time kWarmUp = 2 * sim::kSecond;

  explicit PairMtuAuth(const RunSpec& spec)
      : PairWorkload{spec}, laps_{lap_count(spec, kLapsPerSecond)}, payload_(kPayload, 0x5A) {
    lap_arrivals_.reserve(64 * 1024);  // the 2 s warm-up's ~40k arrivals
  }

  void build() override {
    PairWorkload::build();
    PairInstance& p = *pair_;
    for (core::TangoNode* n : {&*p.la, &*p.ny}) {
      n->set_policy(std::make_unique<core::HysteresisPolicy>(1.0));
    }
    p.ny->enable_policy_engine();
    p.ny->policy_engine()->set_default_mode(core::PolicyMode::weighted);
    dst_ = p.scenario->plan.la_hosts.host(2);
  }

  void warm_up() override {
    PairInstance& p = *pair_;
    attach_sink(*p.la);
    const sim::Time t0 = p.wan->now();
    measure_start_ = t0 + kWarmUp;
    const sim::Time span = static_cast<sim::Time>(laps_) * kLap;
    // Fig. 4 middle: GTT's LA-bound edge settles 5 ms higher for a while;
    // Fig. 4 right: then an instability storm with major spikes.  Scaled
    // into the measured window so the control loop reroutes inside it.
    const topo::LinkKey gtt = topo::VultrScenario::backbone_to_la(kAsnGtt);
    sim::inject(*p.wan, sim::RouteChangeEvent{.link = gtt,
                                              .at = measure_start_ + span / 5,
                                              .duration = span * 3 / 10,
                                              .shift_ms = 5.0,
                                              .transition = span / 40});
    sim::inject(*p.wan, sim::InstabilityEvent{.link = gtt,
                                              .at = measure_start_ + span * 6 / 10,
                                              .duration = span * 3 / 10});
    schedule_.emplace(stream_seed(spec_.seed, 1), ArrivalSchedule::Params{.start_ns = t0});
    start_loops();
    schedule_->fill(measure_start_, lap_arrivals_);
    send_all(measure_start_);
    sink().start_measuring();
  }

  [[nodiscard]] std::size_t laps() const override { return laps_; }
  void prepare_lap(std::size_t lap) override {
    lap_end_ = measure_start_ + static_cast<sim::Time>(lap + 1) * kLap;
    schedule_->fill(lap_end_, lap_arrivals_);
    sink().reserve(lap_arrivals_.size());
  }
  void run_lap(std::size_t) override { send_all(lap_end_); }
  void drain() override { stop_loops(500 * sim::kMillisecond); }

  void check(std::vector<std::string>& v) const override {
    pair_->check(v, true);
    const core::PolicyEngine* e = pair_->ny->policy_engine();
    if (e == nullptr || e->weighted_decisions() == 0) v.push_back("no weighted decision taken");
  }

 private:
  /// Sends every pre-generated arrival at its due time, then advances the
  /// clock to `until`.
  void send_all(sim::Time until) {
    PairInstance& p = *pair_;
    for (const Arrival& a : lap_arrivals_) {
      {
        ScopedSpan span{SpanId::sim_run};
        p.wan->run_until(a.due_ns);
      }
      net::Packet pkt;
      {
        ScopedSpan span{SpanId::bench_gen};
        sink().stamp(payload_, a.due_ns);
        pkt = net::make_udp_packet(p.wan->buffer_pool(), p.ny->host_address(2 + a.flow % 250), dst_,
                                   static_cast<std::uint16_t>(1024 + a.flow % 60000),
                                   AppSink::kPort, payload_);
      }
      ScopedSpan span{SpanId::dataplane_send};
      p.ny->dp().send_from_host(std::move(pkt));
    }
    ScopedSpan span{SpanId::sim_run};
    p.wan->run_until(until);
  }

  /// LA receives every app packet; in this honest run each of its replay
  /// drops is a late packet (a probe or an app packet).
  [[nodiscard]] std::uint64_t late_replay_drops() const override {
    return pair_->la->dp().replay_drops();
  }

  [[nodiscard]] std::optional<net::SipHashKey> key() const override {
    return net::SipHashKey{0x0706050403020100ull, 0x0F0E0D0C0B0A0908ull};
  }

  std::size_t laps_;
  std::vector<std::uint8_t> payload_;
  std::vector<Arrival> lap_arrivals_;
  std::optional<ArrivalSchedule> schedule_;
  net::Ipv6Address dst_;
  sim::Time measure_start_ = 0;
  sim::Time lap_end_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_pair_min_burst(const RunSpec& spec) {
  return std::make_unique<PairMinBurst>(spec);
}
std::unique_ptr<Workload> make_pair_mtu_auth(const RunSpec& spec) {
  return std::make_unique<PairMtuAuth>(spec);
}

}  // namespace perfbench
