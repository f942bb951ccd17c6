#include "runner.hpp"

#include <algorithm>

namespace perfbench {

double Phase::wall_s() const {
  double s = 0;
  for (double w : lap_wall_s) s += w;
  return s;
}

Counters read_counters(tango::sim::Wan& wan, const tango::bgp::BgpNetwork& bgp,
                       std::span<const tango::core::TangoNode* const> nodes,
                       std::uint64_t reports_delivered) {
  Counters c;
  c.events = wan.events().executed();
  c.fib_hits = wan.fib_cache_hits();
  c.fib_lookups = wan.fib_lookups();
  c.pool_hits = wan.buffer_pool().hits();
  c.pool_misses = wan.buffer_pool().misses();
  c.wan_drops = wan.total_dropped();
  c.reports_delivered = reports_delivered;
  for (const tango::core::TangoNode* n : nodes) {
    c.path_switches += n->path_switches();
    c.report_gaps += n->report_gaps();
    if (const tango::core::PolicyEngine* e = n->policy_engine()) {
      c.weighted_decisions += e->weighted_decisions();
      c.flowlets_started += e->flowlets_started();
    }
  }
  c.fib_delta_applies = wan.fib_sync_stats().delta_applies;
  c.fib_router_rebuilds = wan.fib_sync_stats().router_rebuilds;
  c.bgp_messages = bgp.total_messages();
  return c;
}

void check_deployment(const tango::sim::Wan& wan,
                      std::span<const tango::core::TangoNode* const> nodes,
                      std::uint64_t reports_delivered, bool late_replays_possible,
                      std::vector<std::string>& v) {
  for (const tango::core::TangoNode* n : nodes) {
    const auto& dp = n->dp();
    const std::string who = "site r" + std::to_string(dp.router());
    if (dp.auth_drops() != 0) v.push_back(who + ": auth drops");
    if (dp.replay_drops() != 0 && !late_replays_possible) v.push_back(who + ": replay drops");
    if (dp.malformed_drops() != 0) v.push_back(who + ": malformed drops");
    if (dp.no_tunnel_drops() != 0) v.push_back(who + ": no-tunnel drops");
    if (dp.receiver().auth_failures() != 0) v.push_back(who + ": receiver auth failures");
    if (dp.receiver().replay_dropped() != dp.replay_drops()) {
      v.push_back(who + ": receiver and switch disagree on replay drops");
    }
    if (n->report_forged() + n->report_replayed() + n->report_stale() != 0 ||
        n->compliance().violations() != 0) {
      v.push_back(who + ": rejected feedback reports");
    }
  }
  if (wan.total_dropped() != 0) {
    v.push_back("WAN dropped " + std::to_string(wan.total_dropped()) + " packets on lossless links");
  }
  if (reports_delivered == 0) v.push_back("no feedback report delivered");
}

double Phase::pkts_per_s() const {
  std::vector<double> sorted = lap_rate;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return sorted[n > kMinSamplesBeyond ? n - kMinSamplesBeyond - 1 : 0];
}

Phase run_phase(Workload& w, Tracer* tracer, std::vector<std::string>& violations,
                Workload* spare) {
  Phase ph;
  w.warm_up();
  const std::size_t laps = w.laps();
  ph.lap_wall_s.reserve(laps);
  ph.lap_rate.reserve(laps);
  const Counters before = w.counters();
  for (std::size_t lap = 0; lap < laps; ++lap) {
    if (spare != nullptr && lap % w.laps_per_spare_setup() == 0) {
      spare->teardown();
      const std::int64_t s0 = host_now_ns();
      spare->build();
      ph.setup_s.push_back(static_cast<double>(host_now_ns() - s0) / 1e9);
    }
    w.prepare_lap(lap);
    const std::uint64_t delivered0 = w.sink().delivered_any();
    g_tracer = tracer;
    const std::uint64_t a0 = allocations();
    const std::int64_t t0 = host_now_ns();
    if (tracer != nullptr) tracer->begin(SpanId::measure, t0, a0);
    w.run_lap(lap);
    const std::int64_t t1 = host_now_ns();
    const std::uint64_t a1 = allocations();
    if (tracer != nullptr) tracer->end(t1, a1);
    g_tracer = nullptr;
    ph.allocs += a1 - a0;
    const double wall = static_cast<double>(t1 - t0) / 1e9;
    ph.lap_wall_s.push_back(wall);
    ph.lap_rate.push_back(static_cast<double>(w.sink().delivered_any() - delivered0) / wall);
  }
  ph.delta = w.counters() - before;
  w.drain();
  if (spare != nullptr) spare->teardown();

  const AppSink& sink = w.sink();
  ph.offered = sink.offered();
  ph.unique = sink.unique();
  ph.digest = sink.digest();
  ph.owd_p50_ms = sink.owd().percentile_ms(0.50);
  ph.owd_p99_ms = sink.owd().percentile_ms(0.99);
  w.check(violations);
  if (sink.duplicates() != 0) violations.push_back("duplicate app deliveries");
  if (sink.unknown() != 0) violations.push_back("app deliveries with unknown sequence numbers");
  if (sink.owd().out_of_range() != 0) violations.push_back("one-way delays out of range");
  if (ph.offered - ph.unique > w.late_replay_drops()) {
    violations.push_back(std::to_string(ph.offered - ph.unique) + " of " +
                         std::to_string(ph.offered) + " app packets not delivered, " +
                         std::to_string(w.late_replay_drops()) + " late replay drops");
  }
  if (!ph.owd_p99_ms) violations.push_back("too few deliveries for a p99 with 10 samples beyond");
  return ph;
}

}  // namespace perfbench
