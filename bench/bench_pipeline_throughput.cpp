// E11: data-plane wire format, allocation budget and scheduler choice.
//
// Three checks, one binary:
//
//  1. Encap/decap cycle — the seed's copying implementation (ByteWriter
//     per header stack, owning inner copy on decap) against the headroom
//     fast path (prepend into reserved headroom, zero-copy view + trim):
//     wire output must be byte-identical and the fast path must make at
//     most half the legacy heap allocations.
//  2. Pipeline — N concurrent flows pushed through the full LA<->NY Vultr
//     testbed (encap, WAN forwarding, ECMP, decap), plain and with the
//     weighted flowlet policy: traffic must be delivered and the flowlet
//     split path must allocate nothing in steady state.
//  3. Scale scenario — 64 flows, >=1M packets injected in bursts at line
//     rate (tens of thousands of events in flight), run once per scheduler
//     backend.  Both must deliver the same packets, and the timing wheel
//     must beat the binary-heap oracle by >=1.3x delivered pkts/sec in the
//     same process; FIB flow-cache hit rate is reported.
//
// Heap allocations are counted by overriding global operator new/delete in
// this binary.  Results go to stdout and to BENCH_dataplane.json in the
// working directory.  The process exits nonzero if a check fails.
// TANGO_BENCH_QUICK=1 shrinks every iteration count for CI smoke runs (same
// checks, smaller samples).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/policy_engine.hpp"
#include "net/checksum.hpp"
#include "net/packet.hpp"

#ifdef TANGO_ALLOC_TRACE
#include <execinfo.h>
#endif

// --- Counting allocator hook -----------------------------------------------

#ifdef TANGO_ALLOC_TRACE
inline bool g_trace_armed = false;
#endif

namespace {
bool g_counting = false;
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
    g_alloc_bytes += n;
#ifdef TANGO_ALLOC_TRACE
    if (::g_trace_armed && g_allocs <= 32) {
      void* frames[16];
      int depth = backtrace(frames, 16);
      backtrace_symbols_fd(frames, depth, 2);
      std::fprintf(stderr, "---- alloc %llu (%zu bytes)\n",
                   (unsigned long long)g_allocs, n);
    }
#endif
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tango::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Counted {
  double allocs_per_packet = 0;
  double bytes_per_packet = 0;
};

template <class Fn>
Counted count_allocs(std::size_t iterations, Fn&& fn) {
  g_allocs = 0;
  g_alloc_bytes = 0;
  g_counting = true;
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  g_counting = false;
  const double n = static_cast<double>(iterations);
  return Counted{static_cast<double>(g_allocs) / n, static_cast<double>(g_alloc_bytes) / n};
}

// --- Seed-replica legacy path ----------------------------------------------
// The copying implementation this PR replaced, kept here verbatim so the
// comparison is against real seed behaviour rather than a strawman.

net::Packet legacy_make_udp_packet(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                                   std::uint16_t src_port, std::uint16_t dst_port,
                                   std::span<const std::uint8_t> payload,
                                   std::uint8_t hop_limit = 64) {
  const auto udp_len = static_cast<std::uint16_t>(net::UdpHeader::kSize + payload.size());
  net::ByteWriter udp_w{udp_len};
  net::UdpHeader udp{
      .src_port = src_port, .dst_port = dst_port, .length = udp_len, .checksum = 0};
  udp.serialize(udp_w);
  udp_w.bytes(payload);
  udp_w.patch_u16(6, net::udp6_checksum(src, dst, udp_w.view()));

  net::Ipv6Header ip{.payload_length = udp_len,
                     .next_header = net::Ipv6Header::kNextHeaderUdp,
                     .hop_limit = hop_limit,
                     .src = src,
                     .dst = dst};
  net::ByteWriter w{net::Ipv6Header::kSize + udp_len};
  ip.serialize(w);
  w.bytes(udp_w.view());
  return net::Packet{std::move(w).take()};
}

net::Packet legacy_encapsulate_tango(const net::Packet& inner, const net::Ipv6Address& tunnel_src,
                                     const net::Ipv6Address& tunnel_dst,
                                     std::uint16_t udp_src_port,
                                     const net::TangoHeader& tango_header,
                                     std::uint8_t hop_limit = 64) {
  const auto udp_len = static_cast<std::uint16_t>(net::UdpHeader::kSize +
                                                  tango_header.wire_size() + inner.size());
  net::ByteWriter udp_w{udp_len};
  net::UdpHeader udp{.src_port = udp_src_port,
                     .dst_port = net::TangoHeader::kUdpPort,
                     .length = udp_len,
                     .checksum = 0};
  udp.serialize(udp_w);
  tango_header.serialize(udp_w);
  udp_w.bytes(inner.bytes());
  udp_w.patch_u16(6, net::udp6_checksum(tunnel_src, tunnel_dst, udp_w.view()));

  net::Ipv6Header outer{.payload_length = udp_len,
                        .next_header = net::Ipv6Header::kNextHeaderUdp,
                        .hop_limit = hop_limit,
                        .src = tunnel_src,
                        .dst = tunnel_dst};
  net::ByteWriter w{net::Ipv6Header::kSize + udp_len};
  outer.serialize(w);
  w.bytes(udp_w.view());
  return net::Packet{std::move(w).take()};
}

// --- Encap/decap cycle -------------------------------------------------------

struct MicroResult {
  Counted legacy;
  Counted fast;
};

MicroResult run_micro(std::size_t iterations) {
  const auto src = *net::Ipv6Address::parse("2001:db8:100::1");
  const auto dst = *net::Ipv6Address::parse("2001:db8:200::1");
  const auto tun_src = *net::Ipv6Address::parse("2001:db8:a::1");
  const auto tun_dst = *net::Ipv6Address::parse("2001:db8:b::1");
  const std::vector<std::uint8_t> payload(512, 0x5A);
  const net::TangoHeader tango{.path_id = 3, .tx_time_ns = 123456789, .sequence = 42};

  // Byte-identical check before counting anything.
  {
    const net::Packet inner = legacy_make_udp_packet(src, dst, 4000, 9, payload);
    const net::Packet legacy_wire = legacy_encapsulate_tango(inner, tun_src, tun_dst, 40001, tango);
    net::Packet fast = net::make_udp_packet(src, dst, 4000, 9, payload);
    net::encapsulate_tango_inplace(fast, tun_src, tun_dst, 40001, tango);
    if (!(legacy_wire == fast)) {
      std::fprintf(stderr, "FAIL: fast-path wire bytes differ from legacy encapsulation\n");
      std::exit(1);
    }
    const auto view = net::decapsulate_tango_view(fast);
    if (!view || view->tango.sequence != 42) {
      std::fprintf(stderr, "FAIL: fast-path decapsulation rejected its own wire format\n");
      std::exit(1);
    }
    fast.trim_front(view->outer_size);
    if (!(fast == inner)) {
      std::fprintf(stderr, "FAIL: trim_front did not recover the inner packet\n");
      std::exit(1);
    }
  }

  MicroResult result;

  // Legacy cycle: build inner, copy-encapsulate, copy-decapsulate.
  result.legacy = count_allocs(iterations, [&](std::size_t i) {
    net::TangoHeader hdr = tango;
    hdr.sequence = i;
    const net::Packet inner = legacy_make_udp_packet(src, dst, 4000, 9, payload);
    const net::Packet wan = legacy_encapsulate_tango(inner, tun_src, tun_dst, 40001, hdr);
    const auto dec = net::decapsulate_tango(wan);
    if (!dec || dec->inner.size() != inner.size()) std::abort();
  });

  // Fast cycle: pooled inner build, in-place encap, zero-copy decap + trim,
  // buffer recycled.  Warm the pool first (first lap allocates).
  net::BufferPool pool;
  auto fast_cycle = [&](std::size_t i) {
    net::TangoHeader hdr = tango;
    hdr.sequence = i;
    net::Packet p = net::make_udp_packet(pool, src, dst, 4000, 9, payload);
    net::encapsulate_tango_inplace(p, tun_src, tun_dst, 40001, hdr);
    const auto view = net::decapsulate_tango_view(p);
    if (!view) std::abort();
    p.trim_front(view->outer_size);
    pool.release(std::move(p).release_buffer());
  };
  fast_cycle(0);
  result.fast = count_allocs(iterations, fast_cycle);
  return result;
}

// --- Pipeline ----------------------------------------------------------------

struct PipelineResult {
  std::size_t flows = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double allocs_per_packet = 0;
  double pool_hit_rate = 0;
  std::uint64_t weighted_decisions = 0;  ///< engine decisions (weighted variant only)
  std::uint64_t flowlets_started = 0;
};

/// With `weighted_policy`, LA runs the policy engine in weighted mode with a
/// hand-fed weight table (no probing machinery in this bench), so every
/// measured packet takes the flowlet split path: slot lookup + weighted pick.
/// The inter-round sim-time advance (~37 ms WAN drain) dwarfs the 500 us
/// flowlet gap, so each packet starts a fresh flowlet — the worst case for
/// the allocation gate, since the pick logic runs every time.
PipelineResult run_pipeline(std::uint64_t seed, std::size_t flows, std::size_t rounds,
                            bool weighted_policy = false) {
  Testbed tb{seed, /*keep_series=*/false};
  const std::vector<std::uint8_t> payload(512, 0x42);

  if (weighted_policy) {
    tb.la.enable_policy_engine();
    core::PolicyEngine* eng = tb.la.policy_engine();
    eng->set_default_mode(core::PolicyMode::weighted);
    core::PathViews views;
    for (const auto& p : tb.la_outbound.paths) {
      views[p.id] = core::PathReport{.owd_ewma_ms = 30.0 + static_cast<double>(p.id),
                                     .jitter_ms = 0.5,
                                     .loss_rate = 0.0,
                                     .samples = 100,
                                     .updated_at = tb.wan.now() + 1};
    }
    eng->refresh(kServerNy, views, tb.wan.now() + 1);
  }

  std::vector<net::Ipv6Address> srcs;
  std::vector<net::Ipv6Address> dsts;
  for (std::size_t f = 0; f < flows; ++f) {
    srcs.push_back(tb.la.host_address(0x100 + f));
    dsts.push_back(tb.scenario.plan.ny_hosts.host(0x200 + f));
  }

  PipelineResult result;
  result.flows = flows;

  auto send_round = [&]() {
    for (std::size_t f = 0; f < flows; ++f) {
      tb.la.dp().send_from_host(net::make_udp_packet(
          tb.wan.buffer_pool(), srcs[f], dsts[f],
          static_cast<std::uint16_t>(40000 + f), 9, payload));
      ++result.sent;
    }
    tb.wan.events().run_all();
  };

  // Warmup: fills the buffer pool, grows the event queue, touches every
  // code path once.  Not counted.  It lasts as long as the measured phase:
  // the timing wheel grows its chunk pool once, at its first cascade from
  // the 4.3 s level, and 200 rounds of ~37 ms reach that level.
  for (std::size_t r = 0; r < rounds; ++r) send_round();

  const std::uint64_t sent_before = result.sent;
  const std::uint64_t delivered_before = tb.wan.delivered();
  const std::uint64_t pool_ops_before = tb.wan.buffer_pool().hits() + tb.wan.buffer_pool().misses();
  const std::uint64_t pool_hits_before = tb.wan.buffer_pool().hits();

  g_allocs = 0;
  g_counting = true;
#ifdef TANGO_ALLOC_TRACE
  ::g_trace_armed = true;
#endif
  for (std::size_t r = 0; r < rounds; ++r) send_round();
  g_counting = false;

  const std::uint64_t measured_sent = result.sent - sent_before;
  result.delivered = tb.wan.delivered() - delivered_before;
  result.allocs_per_packet =
      measured_sent > 0 ? static_cast<double>(g_allocs) / static_cast<double>(measured_sent) : 0;
  const std::uint64_t pool_ops =
      tb.wan.buffer_pool().hits() + tb.wan.buffer_pool().misses() - pool_ops_before;
  result.pool_hit_rate =
      pool_ops > 0
          ? static_cast<double>(tb.wan.buffer_pool().hits() - pool_hits_before) /
                static_cast<double>(pool_ops)
          : 0;
  result.sent = measured_sent;
  if (weighted_policy) {
    result.weighted_decisions = tb.la.policy_engine()->weighted_decisions();
    result.flowlets_started = tb.la.policy_engine()->flowlets_started();
  }
  return result;
}

// --- Scale scenario: burst injection, wheel vs heap --------------------------

struct ScaleResult {
  std::size_t flows = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double pkts_per_sec = 0;
  double events_per_sec = 0;
  double fib_cache_hit_rate = 0;
};

ScaleResult run_scale(std::uint64_t seed, std::size_t flows, std::size_t rounds,
                      sim::EventQueue::Backend backend) {
  Testbed tb{seed, /*keep_series=*/false, 500 * sim::kMicrosecond, -300 * sim::kMicrosecond,
             backend};
  // Small payloads: the scale scenario measures scheduler + forwarding cost,
  // not memcpy bandwidth.
  const std::vector<std::uint8_t> payload(64, 0x42);

  std::vector<net::Ipv6Address> srcs;
  std::vector<net::Ipv6Address> dsts;
  for (std::size_t f = 0; f < flows; ++f) {
    srcs.push_back(tb.la.host_address(0x100 + f));
    dsts.push_back(tb.scenario.plan.ny_hosts.host(0x200 + f));
  }

  ScaleResult result;
  result.flows = flows;

  // Line-rate injection: one burst per 25 us simulated round while earlier
  // rounds are still crossing the ~37 ms WAN, so ~95k packets (and their
  // per-hop timer events) stay in flight — the regime where scheduler cost
  // shows.  The final run_all drains the tail.
  constexpr sim::Time kRoundInterval = 25 * sim::kMicrosecond;
  const sim::Time start = tb.wan.now();
  const std::uint64_t delivered_before = tb.wan.delivered();
  const std::uint64_t events_before = tb.wan.events().executed();
  const std::uint64_t fib_hits_before = tb.wan.fib_cache_hits();
  const std::uint64_t fib_lookups_before = tb.wan.fib_lookups();

  std::vector<net::Packet> burst;
  burst.reserve(flows);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    burst.clear();
    for (std::size_t f = 0; f < flows; ++f) {
      burst.push_back(net::make_udp_packet(tb.wan.buffer_pool(), srcs[f], dsts[f],
                                           static_cast<std::uint16_t>(40000 + f), 9, payload));
    }
    result.sent += tb.la.dp().send_burst(burst);
    tb.wan.events().run_until(start + static_cast<sim::Time>(r + 1) * kRoundInterval);
  }
  tb.wan.events().run_all();
  const auto t1 = Clock::now();

  result.delivered = tb.wan.delivered() - delivered_before;
  result.events = tb.wan.events().executed() - events_before;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  if (result.wall_seconds > 0) {
    result.pkts_per_sec = static_cast<double>(result.delivered) / result.wall_seconds;
    result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  }
  const std::uint64_t lookups = tb.wan.fib_lookups() - fib_lookups_before;
  result.fib_cache_hit_rate =
      lookups > 0
          ? static_cast<double>(tb.wan.fib_cache_hits() - fib_hits_before) /
                static_cast<double>(lookups)
          : 0;
  return result;
}

// --- Reporting ---------------------------------------------------------------

void emit_counted(JsonWriter& w, const char* key, const Counted& c) {
  w.begin_object(key)
      .field("allocs_per_packet", c.allocs_per_packet, 2)
      .field("alloc_bytes_per_packet", c.bytes_per_packet, 1)
      .end_object();
}

void emit_scale(JsonWriter& w, const char* key, const ScaleResult& s) {
  w.begin_object(key)
      .field("packets_sent", s.sent)
      .field("packets_delivered", s.delivered)
      .field("events_executed", s.events)
      .field("wall_seconds", s.wall_seconds, 3)
      .field("pkts_per_sec", s.pkts_per_sec, 0)
      .field("events_per_sec", s.events_per_sec, 0)
      .field("fib_cache_hit_rate", s.fib_cache_hit_rate, 4)
      .end_object();
}

void write_detail_json(const MicroResult& micro, const PipelineResult& pipe,
                       const PipelineResult& pipe_weighted, const ScaleResult& wheel,
                       const ScaleResult& heap) {
  JsonWriter w;
  w.begin_object();

  w.begin_object("microbench");
  emit_counted(w, "legacy", micro.legacy);
  emit_counted(w, "fastpath", micro.fast);
  w.field("alloc_reduction",
          micro.fast.allocs_per_packet > 0
              ? micro.legacy.allocs_per_packet / micro.fast.allocs_per_packet
              : micro.legacy.allocs_per_packet,
          1);
  w.end_object();

  w.begin_object("pipeline")
      .field("flows", pipe.flows)
      .field("packets_sent", pipe.sent)
      .field("packets_delivered", pipe.delivered)
      .field("allocs_per_packet", pipe.allocs_per_packet, 3)
      .field("pool_hit_rate", pipe.pool_hit_rate, 3)
      .end_object();

  w.begin_object("pipeline_weighted")
      .field("flows", pipe_weighted.flows)
      .field("packets_sent", pipe_weighted.sent)
      .field("packets_delivered", pipe_weighted.delivered)
      .field("allocs_per_packet", pipe_weighted.allocs_per_packet, 3)
      .field("weighted_decisions", pipe_weighted.weighted_decisions)
      .field("flowlets_started", pipe_weighted.flowlets_started)
      .end_object();

  w.begin_object("scale");
  w.field("flows", wheel.flows);
  emit_scale(w, "timing_wheel", wheel);
  emit_scale(w, "binary_heap", heap);
  w.field("wheel_speedup",
          heap.pkts_per_sec > 0 ? wheel.pkts_per_sec / heap.pkts_per_sec : 0.0, 2);
  w.end_object();

  w.end_object();
  w.write_file("BENCH_dataplane.json");
}

struct Config {
  std::uint64_t seed = 7;
  std::size_t micro_iters = 50000;
  std::size_t flows = 32;
  std::size_t rounds = 200;
  std::size_t scale_flows = 64;
  std::size_t scale_rounds = 16000;  // x64 flows ~= 1.02M packets
};

int run(const Config& cfg) {
  print_header("E11: data-plane wire format and allocation budget",
               "byte-identical encap + allocs/packet + timing-wheel vs heap scheduler",
               cfg.seed);

  const MicroResult micro = run_micro(cfg.micro_iters);
  std::printf("encap/decap cycle (%zu iterations, 512 B payload):\n", cfg.micro_iters);
  std::printf("  %-10s %16s %18s\n", "variant", "allocs/packet", "alloc bytes/packet");
  std::printf("  %-10s %16.2f %18.1f\n", "legacy", micro.legacy.allocs_per_packet,
              micro.legacy.bytes_per_packet);
  std::printf("  %-10s %16.2f %18.1f\n", "fastpath", micro.fast.allocs_per_packet,
              micro.fast.bytes_per_packet);
  std::printf("  wire output: byte-identical (checked)\n\n");

  const PipelineResult pipe = run_pipeline(cfg.seed, cfg.flows, cfg.rounds);
  std::printf("pipeline (%zu flows LA->NY through the Vultr testbed):\n", pipe.flows);
  std::printf("  sent=%llu delivered=%llu\n", static_cast<unsigned long long>(pipe.sent),
              static_cast<unsigned long long>(pipe.delivered));
  std::printf("  %.3f heap allocs/packet steady-state, pool hit rate %.1f%%\n\n",
              pipe.allocs_per_packet, 100.0 * pipe.pool_hit_rate);

  const PipelineResult pipe_weighted =
      run_pipeline(cfg.seed, cfg.flows, cfg.rounds, /*weighted_policy=*/true);
  std::printf("pipeline + weighted flowlet policy (same workload, engine in weighted mode):\n");
  std::printf("  sent=%llu delivered=%llu\n",
              static_cast<unsigned long long>(pipe_weighted.sent),
              static_cast<unsigned long long>(pipe_weighted.delivered));
  std::printf("  %.3f heap allocs/packet on the flowlet split path "
              "(%llu weighted decisions, %llu flowlets)\n\n",
              pipe_weighted.allocs_per_packet,
              static_cast<unsigned long long>(pipe_weighted.weighted_decisions),
              static_cast<unsigned long long>(pipe_weighted.flowlets_started));

  const ScaleResult heap =
      run_scale(cfg.seed, cfg.scale_flows, cfg.scale_rounds, sim::EventQueue::Backend::binary_heap);
  const ScaleResult wheel = run_scale(cfg.seed, cfg.scale_flows, cfg.scale_rounds,
                                      sim::EventQueue::Backend::timing_wheel);
  const double speedup = heap.pkts_per_sec > 0 ? wheel.pkts_per_sec / heap.pkts_per_sec : 0.0;
  std::printf("scale scenario (%zu flows x %zu burst rounds, line-rate injection):\n",
              cfg.scale_flows, cfg.scale_rounds);
  std::printf("  %-12s %12s %12s %14s %10s\n", "backend", "delivered", "pkts/sec",
              "events/sec", "wall");
  std::printf("  %-12s %12llu %12.0f %14.0f %9.3fs\n", "binary_heap",
              static_cast<unsigned long long>(heap.delivered), heap.pkts_per_sec,
              heap.events_per_sec, heap.wall_seconds);
  std::printf("  %-12s %12llu %12.0f %14.0f %9.3fs\n", "timing_wheel",
              static_cast<unsigned long long>(wheel.delivered), wheel.pkts_per_sec,
              wheel.events_per_sec, wheel.wall_seconds);
  std::printf("  wheel speedup %.2fx, FIB flow-cache hit rate %.1f%%\n\n", speedup,
              100.0 * wheel.fib_cache_hit_rate);

  write_detail_json(micro, pipe, pipe_weighted, wheel, heap);

  // Shape checks (the acceptance criteria for this bench).
  bool ok = true;
  if (pipe.delivered == 0) {
    std::fprintf(stderr, "FAIL: pipeline delivered no packets\n");
    ok = false;
  }
  if (pipe_weighted.delivered == 0 || pipe_weighted.weighted_decisions == 0 ||
      pipe_weighted.flowlets_started == 0) {
    std::fprintf(stderr,
                 "FAIL: weighted-policy pipeline inert (delivered %llu, decisions %llu, "
                 "flowlets %llu) — the alloc gate has no teeth\n",
                 static_cast<unsigned long long>(pipe_weighted.delivered),
                 static_cast<unsigned long long>(pipe_weighted.weighted_decisions),
                 static_cast<unsigned long long>(pipe_weighted.flowlets_started));
    ok = false;
  }
  if (pipe_weighted.allocs_per_packet > 0.0) {
    std::fprintf(stderr,
                 "FAIL: flowlet split path allocates %.3f/packet steady-state — "
                 "the weighted decision must stay zero-alloc\n",
                 pipe_weighted.allocs_per_packet);
    ok = false;
  }
  if (micro.fast.allocs_per_packet * 2.0 > micro.legacy.allocs_per_packet) {
    std::fprintf(stderr,
                 "FAIL: fast path allocates %.2f/packet, legacy %.2f/packet — "
                 "need at least a 2x reduction\n",
                 micro.fast.allocs_per_packet, micro.legacy.allocs_per_packet);
    ok = false;
  }
  if (wheel.delivered != heap.delivered) {
    std::fprintf(stderr,
                 "FAIL: backends disagree on delivered packets (wheel %llu, heap %llu) — "
                 "determinism broken\n",
                 static_cast<unsigned long long>(wheel.delivered),
                 static_cast<unsigned long long>(heap.delivered));
    ok = false;
  }
  if (speedup < 1.3) {
    std::fprintf(stderr,
                 "FAIL: timing wheel %.0f pkts/sec vs heap %.0f (%.2fx) — "
                 "regression gate requires >=1.3x\n",
                 wheel.pkts_per_sec, heap.pkts_per_sec, speedup);
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "shape checks passed (byte-identical wire, fast path <= legacy/2 allocs, flowlet "
      "split path zero-alloc, traffic delivered, equal wheel/heap delivery, wheel >= 1.3x "
      "heap)\n");
  return 0;
}

}  // namespace
}  // namespace tango::bench

int main(int argc, char** argv) {
  tango::bench::Config cfg;
  if (tango::bench::quick_mode()) {
    // CI smoke mode: same scenarios and checks, fractions of the samples.
    // scale_rounds still covers > 37 ms of injection so the scale scenario
    // reaches its steady-state in-flight population (where the wheel-vs-heap
    // gap lives) before the drain.
    cfg.micro_iters = 2000;
    cfg.rounds = 40;
    cfg.scale_rounds = 4800;
  }
  if (argc > 1) cfg.seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) cfg.micro_iters = std::strtoull(argv[2], nullptr, 10);
  if (argc > 3) cfg.flows = std::strtoull(argv[3], nullptr, 10);
  if (argc > 4) cfg.rounds = std::strtoull(argv[4], nullptr, 10);
  if (argc > 5) cfg.scale_rounds = std::strtoull(argv[5], nullptr, 10);
  return tango::bench::run(cfg);
}
