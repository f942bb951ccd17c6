// E10 / §3: "adding tunnel-specific sequence numbers on packets can allow
// Tango to additionally compute loss and reordering."
//
// Validates the sequence-number telemetry against ground truth injected by
// the simulator: Bernoulli loss sweeps, Gilbert-Elliott burst loss, and
// ECMP-induced reordering — plus the §5 argument that reordering, not just
// delay, is what hurts TCP during instability.
#include "common.hpp"

namespace tango::bench {
namespace {

struct LossRun {
  double injected;
  double measured;
  std::uint64_t received;
  std::uint64_t lost;
};

LossRun run_loss(std::uint64_t seed, double loss_rate) {
  Testbed bed{seed};
  bed.wan.link(kGtt, kVultrLa).set_loss(std::make_unique<sim::BernoulliLoss>(loss_rate));

  bed.ny.dp().set_active_path(kServerLa, 3);  // GTT
  const std::vector<std::uint8_t> payload{0xAA};
  for (int i = 0; i < 20000; ++i) {
    bed.wan.events().schedule_in(i * sim::kMillisecond, [&bed, &payload]() {
      bed.ny.dp().send_from_host(net::make_udp_packet(
          bed.ny.host_address(1), bed.la.host_address(1), 7, 7, payload));
    });
  }
  bed.wan.events().run_all();

  const dataplane::PathTracker* t = bed.la.dp().receiver().tracker(3);
  return LossRun{.injected = loss_rate,
                 .measured = t->loss().loss_rate(),
                 .received = t->loss().received(),
                 .lost = t->loss().lost()};
}

}  // namespace
}  // namespace tango::bench

int main() {
  using namespace tango::bench;
  using namespace tango;
  constexpr std::uint64_t kSeed = 29;
  print_header("E10 - sequence-number loss & reordering telemetry",
               "Tracker accuracy vs injected ground truth on the GTT path", kSeed);

  std::printf("--- Bernoulli loss sweep (20k packets per point) ---\n");
  telemetry::Table loss_table{{"Injected", "Measured", "Received", "Confirmed lost"}};
  bool loss_ok = true;
  for (double rate : {0.0, 0.01, 0.05, 0.10, 0.25}) {
    const LossRun r = run_loss(kSeed, rate);
    loss_table.add_row({telemetry::fmt(100 * r.injected, 1) + "%",
                        telemetry::fmt(100 * r.measured, 2) + "%",
                        std::to_string(r.received), std::to_string(r.lost)});
    loss_ok = loss_ok && std::abs(r.measured - r.injected) < 0.02;
  }
  std::printf("%s\n", loss_table.render().c_str());

  std::printf("--- Burst loss (Gilbert-Elliott) is detected the same way ---\n");
  Testbed bed{kSeed + 1};
  bed.wan.link(kGtt, kVultrLa)
      .set_loss(std::make_unique<sim::GilbertElliottLoss>(0.01, 0.1, 0.001, 0.6));
  bed.ny.dp().set_active_path(kServerLa, 3);
  const std::vector<std::uint8_t> payload{0xBB};
  for (int i = 0; i < 20000; ++i) {
    bed.wan.events().schedule_in(i * sim::kMillisecond, [&bed, &payload]() {
      bed.ny.dp().send_from_host(net::make_udp_packet(
          bed.ny.host_address(1), bed.la.host_address(1), 7, 7, payload));
    });
  }
  bed.wan.events().run_all();
  const dataplane::PathTracker* t = bed.la.dp().receiver().tracker(3);
  std::printf("burst loss measured: %.2f%% (GE stationary rate ~5.5%%), received %llu, "
              "lost %llu\n\n",
              100 * t->loss().loss_rate(),
              static_cast<unsigned long long>(t->loss().received()),
              static_cast<unsigned long long>(t->loss().lost()));
  const bool burst_ok = t->loss().loss_rate() > 0.02 && t->loss().loss_rate() < 0.12;

  std::printf("--- ECMP-induced reordering (unpinned spread across lanes) ---\n");
  // With 4 lanes 2 ms apart and packets alternating lanes, later-sent
  // packets on fast lanes overtake earlier ones on slow lanes.  Tango's
  // pinned tunnels see (almost) none of it.
  Testbed bed2{kSeed + 2};
  bed2.wan.link(kGtt, kVultrLa).set_ecmp(4, 2.0);
  bed2.ny.dp().set_active_path(kServerLa, 3);
  for (int i = 0; i < 5000; ++i) {
    bed2.wan.events().schedule_in(i * sim::kMillisecond, [&bed2, &payload]() {
      bed2.ny.dp().send_from_host(net::make_udp_packet(
          bed2.ny.host_address(1), bed2.la.host_address(1), 7, 7, payload));
    });
  }
  bed2.wan.events().run_all();
  const dataplane::PathTracker* pinned = bed2.la.dp().receiver().tracker(3);
  std::printf("pinned tunnel reorder rate: %.3f%% (fixed 5-tuple rides one lane)\n",
              100 * pinned->reorder().reorder_rate());
  const bool reorder_ok = pinned->reorder().reorder_rate() < 0.001;

  std::printf("\nreproduction: %s\n",
              (loss_ok && burst_ok && reorder_ok) ? "MATCHES" : "MISMATCH");
  return (loss_ok && burst_ok && reorder_ok) ? 0 : 1;
}
