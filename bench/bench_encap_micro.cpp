// E8 / §4.2 data-plane cost: google-benchmark microbenchmarks of the packet
// pipeline and control-plane hot paths.  The paper's eBPF prototype argues
// the per-packet work is switch-grade; these numbers bound our software
// implementation of the same transformations.
#include <benchmark/benchmark.h>

#include <random>

#include "core/discovery.hpp"
#include "dataplane/encap.hpp"
#include "net/checksum.hpp"
#include "net/prefix_trie.hpp"
#include "topo/vultr_scenario.hpp"

namespace {

using namespace tango;

const net::Ipv6Address kHostA = *net::Ipv6Address::parse("2620:110:900a::10");
const net::Ipv6Address kHostB = *net::Ipv6Address::parse("2620:110:901b::10");
const net::Ipv6Address kTunA = *net::Ipv6Address::parse("2620:110:9001::1");
const net::Ipv6Address kTunB = *net::Ipv6Address::parse("2620:110:9011::1");

net::Packet make_inner(std::size_t payload_size) {
  std::vector<std::uint8_t> payload(payload_size, 0xAB);
  return net::make_udp_packet(kHostA, kHostB, 40000, 443, payload);
}

void BM_EncapsulateTango(benchmark::State& state) {
  const net::Packet inner = make_inner(static_cast<std::size_t>(state.range(0)));
  net::TangoHeader header;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    header.sequence = seq++;
    header.tx_time_ns = seq * 1000;
    benchmark::DoNotOptimize(net::encapsulate_tango(inner, kTunA, kTunB, 49153, header));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inner.size()));
}
BENCHMARK(BM_EncapsulateTango)->Arg(64)->Arg(256)->Arg(1024);

void BM_DecapsulateTango(benchmark::State& state) {
  const net::Packet inner = make_inner(static_cast<std::size_t>(state.range(0)));
  net::TangoHeader header;
  header.tx_time_ns = 123456;
  const net::Packet wan = net::encapsulate_tango(inner, kTunA, kTunB, 49153, header);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decapsulate_tango(wan));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wan.size()));
}
BENCHMARK(BM_DecapsulateTango)->Arg(64)->Arg(256)->Arg(1024);

void BM_Udp6Checksum(benchmark::State& state) {
  std::vector<std::uint8_t> segment(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::udp6_checksum(kTunA, kTunB, segment));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Udp6Checksum)->Arg(64)->Arg(1456)->Arg(1500);

// Receive-side check over the outer UDP segment of a 1400-byte-payload
// packet (1456 B: UDP + Tango header + tag + inner IPv6/UDP + payload).
void BM_Udp6ChecksumVerify(benchmark::State& state) {
  std::mt19937_64 rng{static_cast<std::uint64_t>(state.range(0))};
  std::vector<std::uint8_t> segment(static_cast<std::size_t>(state.range(0)));
  for (auto& b : segment) b = static_cast<std::uint8_t>(rng());
  segment[6] = segment[7] = 0;
  const std::uint16_t csum = net::udp6_checksum(kTunA, kTunB, segment);
  segment[6] = static_cast<std::uint8_t>(csum >> 8);
  segment[7] = static_cast<std::uint8_t>(csum);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::udp6_checksum_ok(kTunA, kTunB, segment));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Udp6ChecksumVerify)->Arg(1456);

// §6 MAC over the measurement fields and the inner packet, as computed once
// by the sender and once by the receiver for every keyed packet.
void BM_TelemetryAuthTag(benchmark::State& state) {
  const net::SipHashKey key{.k0 = 0x0706050403020100ull, .k1 = 0x0f0e0d0c0b0a0908ull};
  const net::Packet inner = make_inner(static_cast<std::size_t>(state.range(0)));
  net::TangoHeader header;
  header.flags |= net::TangoHeader::kFlagAuthenticated;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    header.sequence = seq++;
    header.tx_time_ns = seq * 1000;
    benchmark::DoNotOptimize(dataplane::telemetry_auth_tag(key, header, inner));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inner.size()));
}
BENCHMARK(BM_TelemetryAuthTag)->Arg(64)->Arg(1400);

void BM_TrieLookup(benchmark::State& state) {
  net::PrefixTrie<int> trie;
  std::mt19937_64 rng{7};
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    net::Ipv6Address::Bytes b{};
    b[0] = 0x20;
    for (std::size_t j = 1; j < 8; ++j) b[j] = static_cast<std::uint8_t>(rng());
    trie.insert(net::Ipv6Prefix{net::Ipv6Address{b}, static_cast<std::uint8_t>(32 + rng() % 33)},
                i);
  }
  const net::Ipv6Address probe = kHostB;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probe));
  }
}
BENCHMARK(BM_TrieLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_TrackerRecord(benchmark::State& state) {
  dataplane::PathTracker tracker{false};
  std::uint64_t seq = 0;
  sim::Time now = 0;
  for (auto _ : state) {
    now += 10 * sim::kMillisecond;
    tracker.record(now, 28.4, seq++);
  }
  benchmark::DoNotOptimize(tracker.delay().lifetime().count());
}
BENCHMARK(BM_TrackerRecord);

void BM_SenderWrap(benchmark::State& state) {
  dataplane::TunnelTable table;
  table.install(dataplane::Tunnel{.id = 1,
                                  .label = "NTT",
                                  .local_endpoint = kTunA,
                                  .remote_endpoint = kTunB,
                                  .remote_prefix = *net::Ipv6Prefix::parse("2620:110:9011::/48"),
                                  .udp_src_port = 49153});
  sim::NodeClock clock;
  dataplane::TunnelSender sender{table, clock};
  const net::Packet inner = make_inner(256);
  sim::Time now = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(sender.wrap(inner, 1, now));
  }
}
BENCHMARK(BM_SenderWrap);

void BM_DiscoveryFullRun(benchmark::State& state) {
  // Whole-control-plane cost: build the Vultr scenario and enumerate both
  // directions (BGP convergence included).
  for (auto _ : state) {
    topo::VultrScenario s = topo::make_vultr_scenario();
    core::DiscoveryRequest req{
        .destination = topo::vultr::kServerNy,
        .source = topo::vultr::kServerLa,
        .prefix_pool = {s.plan.ny_tunnel.begin(), s.plan.ny_tunnel.end()},
        .edge_asns = {topo::vultr::kAsnVultr, topo::vultr::kAsnServerLa,
                      topo::vultr::kAsnServerNy}};
    benchmark::DoNotOptimize(core::discover_paths(s.topo, req));
  }
}
BENCHMARK(BM_DiscoveryFullRun)->Unit(benchmark::kMillisecond);

void BM_BgpConvergenceVultr(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::make_vultr_scenario());
  }
}
BENCHMARK(BM_BgpConvergenceVultr)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
