// The benchmark's own arithmetic: percentiles, fixed-size histograms, lap
// quartiles, span self time, deterministic digests and the seeded input
// schedules.  Header-only and free of program dependencies so the unit tests
// (tests/test_measure.cpp) exercise exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

// --- Percentiles ---------------------------------------------------------------

/// A percentile is reported only when at least this many samples lie beyond
/// it; otherwise the highest reportable percentile is a lower one.
inline constexpr std::uint64_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the 1-based rank of the smallest sample such that
/// at least a fraction `q` of the `n` samples are at or below it.
[[nodiscard]] inline std::uint64_t nearest_rank(std::uint64_t n, double q) {
  if (n == 0) throw std::invalid_argument{"nearest_rank: no samples"};
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument{"nearest_rank: q outside (0, 1]"};
  // The epsilon keeps q*n that is integral in exact arithmetic (0.99*1000)
  // from rounding up one rank through binary floating point.
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank percentile's position.
[[nodiscard]] inline std::uint64_t samples_beyond(std::uint64_t n, double q) {
  return n - nearest_rank(n, q);
}

/// Quartiles by the rule of Python's statistics.quantiles(data, n=4) (the
/// default "exclusive" method), so run records and the acceptance check
/// compute spreads identically.  Needs at least two values.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> data) {
  if (data.size() < 2) throw std::invalid_argument{"quartiles: need at least two values"};
  std::sort(data.begin(), data.end());
  const auto ld = static_cast<std::int64_t>(data.size());
  const std::int64_t m = ld + 1;
  std::array<double, 3> out{};
  for (std::int64_t i = 1; i < 4; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (data[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         data[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

[[nodiscard]] inline double median(std::vector<double> data) {
  if (data.empty()) throw std::invalid_argument{"median: no values"};
  std::sort(data.begin(), data.end());
  const std::size_t n = data.size();
  return n % 2 == 1 ? data[n / 2] : (data[n / 2 - 1] + data[n / 2]) / 2.0;
}

// --- One-way-delay histogram -----------------------------------------------------

/// Simulated one-way delays in fixed 1 us bins up to ~1.05 s: constant memory
/// whatever the packet count (calloc'd, so only touched pages become
/// resident), exact counts, and percentiles that are a pure function of the
/// delivered set.
class OwdHistogram {
 public:
  static constexpr std::int64_t kBinNs = 1'000;
  static constexpr std::size_t kBins = std::size_t{1} << 20;

  OwdHistogram()
      : bins_{static_cast<std::uint32_t*>(std::calloc(kBins, sizeof(std::uint32_t))), &std::free} {
    if (bins_ == nullptr) throw std::bad_alloc{};
  }

  void add(std::int64_t owd_ns) noexcept {
    ++count_;
    if (owd_ns < 0 || owd_ns / kBinNs >= static_cast<std::int64_t>(kBins)) {
      ++out_of_range_;
      return;
    }
    ++bins_[static_cast<std::size_t>(owd_ns / kBinNs)];
  }

  /// Samples below zero or beyond the last bin (a correctness violation).
  [[nodiscard]] std::uint64_t out_of_range() const noexcept { return out_of_range_; }

  /// Nearest-rank percentile in ms, or nullopt when fewer than
  /// kMinSamplesBeyond samples lie beyond it or any sample fell out of
  /// range.  Within its 1 us bin the ranked sample is placed as if the bin's
  /// samples were spread evenly, so the value stays within the sample's bin
  /// yet still resolves sub-microsecond shifts of a dense distribution.
  [[nodiscard]] std::optional<double> percentile_ms(double q) const {
    if (count_ == 0 || out_of_range_ > 0) return std::nullopt;
    if (samples_beyond(count_, q) < kMinSamplesBeyond) return std::nullopt;
    const std::uint64_t rank = nearest_rank(count_, q);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      if (seen + bins_[b] >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) / bins_[b];
        return (static_cast<double>(b) + within) * static_cast<double>(kBinNs) / 1e6;
      }
      seen += bins_[b];
    }
    return std::nullopt;
  }

 private:
  std::unique_ptr<std::uint32_t[], decltype(&std::free)> bins_;
  std::uint64_t count_ = 0;
  std::uint64_t out_of_range_ = 0;
};

/// Log-linear histogram of host durations in ns (16 sub-buckets per power of
/// two, so a bucket spans at most 6.25% of its lower bound).
class LogHistogram {
 public:
  void add(std::int64_t ns) noexcept {
    ++count_;
    ++buckets_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
  }

  /// Nearest-rank percentile in ns, placed inside its bucket as if the
  /// bucket's samples were spread evenly (as OwdHistogram does); nullopt
  /// under the kMinSamplesBeyond rule.
  [[nodiscard]] std::optional<double> percentile(double q) const {
    if (count_ == 0 || samples_beyond(count_, q) < kMinSamplesBeyond) return std::nullopt;
    const std::uint64_t rank = nearest_rank(count_, q);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (seen + buckets_[i] >= rank) {
        const auto lo = static_cast<double>(lower_bound(i));
        const auto width = static_cast<double>(lower_bound(i + 1)) - lo;
        return lo + width * (static_cast<double>(rank - seen) - 0.5) /
                        static_cast<double>(buckets_[i]);
      }
      seen += buckets_[i];
    }
    return std::nullopt;
  }

  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept {
    if (v < 16) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // e >= 4
    const std::uint64_t mant = (v >> (e - 4)) & 15;
    return static_cast<std::size_t>(16 + (e - 4) * 16) + static_cast<std::size_t>(mant);
  }
  [[nodiscard]] static std::uint64_t lower_bound(std::size_t i) noexcept {
    if (i < 16) return i;
    const std::size_t e = (i - 16) / 16 + 4;
    const std::uint64_t mant = (i - 16) % 16;
    return (std::uint64_t{16} | mant) << (e - 4);
  }

 private:
  std::array<std::uint64_t, 16 + 60 * 16> buckets_{};
  std::uint64_t count_ = 0;
};

// --- Digest ------------------------------------------------------------------------

/// Order-sensitive 64-bit digest (FNV-1a over 64-bit words, then a final
/// avalanche on read).
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t z = h_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// --- Spans -----------------------------------------------------------------------

/// Every span the benchmark records.  Each wraps one public call of one
/// layer (or the benchmark's own work), named layer.operation.
enum class SpanId : std::uint8_t {
  measure,          ///< the whole measured phase (root)
  bench_gen,        ///< the benchmark builds host packets
  dataplane_send,   ///< TangoSwitch::send_from_host / send_burst
  sim_run,          ///< Wan::run_until (WAN hops, receive side, ticks)
  bench_deliver,    ///< the benchmark's host handler (nested in sim_run)
  bgp_churn,        ///< BgpNetwork withdraw/originate/session flap
  sim_fib_sync,     ///< Wan::sync_fibs
  topo_build,       ///< scenario / mesh construction
  bgp_flood,        ///< initial BgpNetwork::run_to_convergence
  sim_wan_build,    ///< Wan construction (links + first FIB sync)
  core_establish,   ///< TangoPairing / TangoMesh establish
  count,
};

[[nodiscard]] inline const char* span_name(SpanId id) noexcept {
  switch (id) {
    case SpanId::measure: return "measure";
    case SpanId::bench_gen: return "bench.gen";
    case SpanId::dataplane_send: return "dataplane.send";
    case SpanId::sim_run: return "sim.run";
    case SpanId::bench_deliver: return "bench.deliver";
    case SpanId::bgp_churn: return "bgp.churn";
    case SpanId::sim_fib_sync: return "sim.fib_sync";
    case SpanId::topo_build: return "topo.build";
    case SpanId::bgp_flood: return "bgp.flood";
    case SpanId::sim_wan_build: return "sim.wan_build";
    case SpanId::core_establish: return "core.establish";
    case SpanId::count: break;
  }
  return "?";
}

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanId::count);

/// Aggregate of every closed span of one kind.  Self time is the span's
/// duration minus the durations of its direct children; likewise for
/// allocations.
struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t child_allocs = 0;
  LogHistogram durations;

  [[nodiscard]] std::int64_t self_ns() const noexcept { return total_ns - child_ns; }
  [[nodiscard]] std::uint64_t self_allocs() const noexcept { return allocs - child_allocs; }
};

/// One closed span as kept in the in-memory ring.
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId id = SpanId::count;
  SpanId parent = SpanId::count;  ///< SpanId::count for a root span
};

/// Nested spans fed explicit timestamps and allocation counts (the caller
/// reads the clock), so the arithmetic is testable without a clock.  All
/// storage is fixed at construction: recording allocates nothing.
class Tracer {
 public:
  static constexpr std::size_t kMaxDepth = 8;

  explicit Tracer(std::size_t ring_capacity = 1 << 16) : ring_(ring_capacity) {}

  void begin(SpanId id, std::int64_t now_ns, std::uint64_t allocs_now) {
    if (depth_ == kMaxDepth) throw std::logic_error{"Tracer: spans nested too deep"};
    stack_[depth_++] = Frame{id, now_ns, allocs_now, 0, 0};
  }

  void end(std::int64_t now_ns, std::uint64_t allocs_now) {
    if (depth_ == 0) throw std::logic_error{"Tracer: end without begin"};
    const Frame f = stack_[--depth_];
    const std::int64_t dur = now_ns - f.start_ns;
    const std::uint64_t allocs = allocs_now - f.start_allocs;
    SpanStats& s = stats_[static_cast<std::size_t>(f.id)];
    ++s.count;
    s.total_ns += dur;
    s.child_ns += f.child_ns;
    s.allocs += allocs;
    s.child_allocs += f.child_allocs;
    s.durations.add(dur);
    SpanId parent = SpanId::count;
    if (depth_ > 0) {
      Frame& up = stack_[depth_ - 1];
      up.child_ns += dur;
      up.child_allocs += allocs;
      parent = up.id;
    }
    if (!ring_.empty()) {
      ring_[recorded_ % ring_.size()] = SpanRecord{f.start_ns, now_ns, f.id, parent};
      ++recorded_;
    }
  }

  [[nodiscard]] const SpanStats& stats(SpanId id) const noexcept {
    return stats_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  /// Spans closed so far (the ring keeps the most recent ring_capacity).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  /// The ring's spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> recent() const {
    std::vector<SpanRecord> out;
    const std::uint64_t n = std::min<std::uint64_t>(recorded_, ring_.size());
    out.reserve(n);
    for (std::uint64_t i = recorded_ - n; i < recorded_; ++i) out.push_back(ring_[i % ring_.size()]);
    return out;
  }

 private:
  struct Frame {
    SpanId id;
    std::int64_t start_ns;
    std::uint64_t start_allocs;
    std::int64_t child_ns;
    std::uint64_t child_allocs;
  };
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::array<SpanStats, kSpanKinds> stats_{};
  std::vector<SpanRecord> ring_;
  std::uint64_t recorded_ = 0;
};

// --- Seeded inputs -------------------------------------------------------------------

/// splitmix64: the benchmark's only randomness source for its inputs.  Fully
/// specified here (unlike std:: distributions), so a seed means the same
/// schedule on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double unit() noexcept { return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for one input of one workload.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r{seed ^ (stream * 0xD1B54A32D192ED03ull)};
  return r.next();
}

/// One packet the open-loop generator must send.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t flow = 0;
};

/// Open-loop flow arrivals: flows start as a Poisson process, each carries a
/// Pareto-distributed number of packets at a fixed spacing.  Packets are
/// emitted in due-time order (ties by flow id) one window at a time, so a
/// run pre-generates each lap's schedule into a buffer it reuses.
class ArrivalSchedule {
 public:
  struct Params {
    double flows_per_sec = 500.0;
    double pareto_alpha = 1.5;
    double mean_flow_packets = 40.0;
    std::uint32_t max_flow_packets = 4000;
    std::int64_t packet_spacing_ns = 100'000;
    std::int64_t start_ns = 0;
  };

  ArrivalSchedule(std::uint64_t seed, const Params& p) : rng_{seed}, p_{p} {
    if (!(p.pareto_alpha > 1.0) || p.flows_per_sec <= 0 || p.mean_flow_packets < 1) {
      throw std::invalid_argument{"ArrivalSchedule: bad params"};
    }
    x_min_ = p.mean_flow_packets * (p.pareto_alpha - 1.0) / p.pareto_alpha;
    next_flow_ns_ = p.start_ns + gap();
    active_.reserve(1024);
  }

  /// Appends every packet due before `until_ns` to `out` (cleared first).
  void fill(std::int64_t until_ns, std::vector<Arrival>& out) {
    out.clear();
    for (;;) {
      if (next_flow_ns_ < until_ns &&
          (active_.empty() || next_flow_ns_ <= active_.front().next_ns)) {
        push(Flow{next_flow_ns_, flow_size(), next_flow_id_++});
        next_flow_ns_ += gap();
        continue;
      }
      if (active_.empty() || active_.front().next_ns >= until_ns) return;
      std::pop_heap(active_.begin(), active_.end(), later);
      Flow f = active_.back();
      active_.pop_back();
      out.push_back(Arrival{f.next_ns, f.id});
      if (--f.remaining > 0) {
        f.next_ns += p_.packet_spacing_ns;
        push(f);
      }
    }
  }

 private:
  struct Flow {
    std::int64_t next_ns;
    std::uint32_t remaining;
    std::uint32_t id;
  };
  static bool later(const Flow& a, const Flow& b) noexcept {
    return a.next_ns != b.next_ns ? a.next_ns > b.next_ns : a.id > b.id;
  }
  void push(const Flow& f) {
    active_.push_back(f);
    std::push_heap(active_.begin(), active_.end(), later);
  }
  std::int64_t gap() {
    return 1 + static_cast<std::int64_t>(-std::log(rng_.unit()) / p_.flows_per_sec * 1e9);
  }
  std::uint32_t flow_size() {
    const double x = x_min_ / std::pow(rng_.unit(), 1.0 / p_.pareto_alpha);
    return static_cast<std::uint32_t>(
        std::clamp(std::llround(x), 1LL, static_cast<long long>(p_.max_flow_packets)));
  }

  Rng rng_;
  Params p_;
  double x_min_ = 1.0;
  std::int64_t next_flow_ns_ = 0;
  std::uint32_t next_flow_id_ = 0;
  std::vector<Flow> active_;  ///< min-heap on (next_ns, id)
};

/// One control-plane churn operation of the mesh workload.
struct ChurnOp {
  enum class Kind : std::uint8_t { prefix_flap, session_flap };
  Kind kind = Kind::prefix_flap;
  std::uint32_t target = 0;      ///< origination index, or stub index
  std::uint32_t uplink = 0;      ///< session flap: which of the stub's uplinks
  std::uint32_t preference = 0;  ///< session flap: preference on re-add
};

/// `count` churn operations over `originations` prefixes and `stubs` stub
/// routers: of every ten, seven single-prefix flaps (the UPDATE-storm shape)
/// and three stub uplink session flaps (the bulk-invalidation shape), in a
/// fixed pattern so equal stretches of the schedule cost alike.
[[nodiscard]] inline std::vector<ChurnOp> churn_schedule(std::uint64_t seed, std::size_t count,
                                                         std::uint32_t originations,
                                                         std::uint32_t stubs) {
  if (originations == 0 || stubs == 0) throw std::invalid_argument{"churn_schedule: empty"};
  Rng rng{seed};
  std::vector<ChurnOp> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ChurnOp op;
    if (i % 10 < 7) {
      op.kind = ChurnOp::Kind::prefix_flap;
      op.target = static_cast<std::uint32_t>(rng.below(originations));
    } else {
      op.kind = ChurnOp::Kind::session_flap;
      op.target = static_cast<std::uint32_t>(rng.below(stubs));
      op.uplink = static_cast<std::uint32_t>(rng.below(2));
      op.preference = static_cast<std::uint32_t>(rng.below(4));
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace perfbench
