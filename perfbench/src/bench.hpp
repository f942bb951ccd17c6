// Shared pieces of the workloads: the span scope, the application-level
// receiver accounting, the counter snapshot read from the program's public
// accessors, and the interface the runner drives.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "measure.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// operator new calls made by this process so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t allocations() noexcept;

/// The tracer of a traced measured phase; nullptr whenever tracing is off,
/// which reduces every span to one predictable branch.
inline Tracer* g_tracer = nullptr;

[[nodiscard]] inline std::int64_t host_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records one span around a public call when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId id) : tracer_{g_tracer} {
    if (tracer_ != nullptr) tracer_->begin(id, host_now_ns(), allocations());
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(host_now_ns(), allocations());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Application traffic accounting, done by the benchmark on both ends.  The
/// sender stamps a sequence number and the simulated due time into the
/// first 16 payload bytes; the receiving host handler reads them back.  The
/// generator is an open loop in simulated time and never runs late, so the
/// one-way delay counted from the due time is the delay a user sees.
///
/// Memory is fixed: a 1 us-bin delay histogram and one bit per measured
/// packet, grown only between laps (reserve()).
class AppSink {
 public:
  static constexpr std::uint16_t kPort = 7777;
  static constexpr std::size_t kStampBytes = 16;

  /// Packets stamped from now on belong to the measured phase.
  void start_measuring() noexcept {
    measuring_ = true;
    first_measured_ = next_seq_;
  }
  /// Makes room for `more` measured packets (call before a lap, untimed).
  void reserve(std::size_t more) {
    const std::size_t bits = static_cast<std::size_t>(next_seq_ - first_measured_) + more;
    if (seen_.size() * 64 < bits) seen_.resize((bits + 63) / 64, 0);
  }

  /// Writes the next sequence number and `due` into `payload`.
  void stamp(std::span<std::uint8_t> payload, tango::sim::Time due) noexcept {
    const std::uint64_t seq = next_seq_++;
    std::memcpy(payload.data(), &seq, 8);
    std::memcpy(payload.data() + 8, &due, 8);
    if (measuring_) ++offered_;
  }

  /// Host handler body: accounts one delivered inner packet.
  void on_packet(const tango::net::Packet& inner, tango::sim::Time now) {
    const auto bytes = inner.bytes();
    constexpr std::size_t kPayloadAt = 40 + 8;  // IPv6 + UDP headers
    if (bytes.size() < kPayloadAt + kStampBytes || tango::net::udp_dst_port(inner) != kPort) return;
    std::uint64_t seq = 0;
    tango::sim::Time due = 0;
    std::memcpy(&seq, bytes.data() + kPayloadAt, 8);
    std::memcpy(&due, bytes.data() + kPayloadAt + 8, 8);
    ++delivered_any_;
    if (!measuring_ || seq < first_measured_) return;
    const std::uint64_t idx = seq - first_measured_;
    if (idx / 64 >= seen_.size()) {
      ++unknown_;
      return;
    }
    std::uint64_t& word = seen_[idx / 64];
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    if ((word & bit) != 0) {
      ++duplicates_;
      return;
    }
    word |= bit;
    ++unique_;
    owd_.add(now - due);
    digest_.add(seq);
    digest_.add(static_cast<std::uint64_t>(now));
  }

  /// App packets delivered so far, warm-up ones included (lap throughput).
  [[nodiscard]] std::uint64_t delivered_any() const noexcept { return delivered_any_; }
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::uint64_t unique() const noexcept { return unique_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  /// Deliveries carrying a sequence that was never stamped.
  [[nodiscard]] std::uint64_t unknown() const noexcept { return unknown_; }
  [[nodiscard]] const OwdHistogram& owd() const noexcept { return owd_; }
  /// Digest of (sequence, simulated arrival time) over measured deliveries
  /// in delivery order.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_.value(); }

 private:
  bool measuring_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t first_measured_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_any_ = 0;
  std::uint64_t unique_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t unknown_ = 0;
  std::vector<std::uint64_t> seen_;
  OwdHistogram owd_;
  Digest digest_;
};

/// Cumulative counters read from the program's public accessors; the
/// runner subtracts a snapshot taken before the measured phase from one
/// taken after it.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t fib_hits = 0;
  std::uint64_t fib_lookups = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t wan_drops = 0;
  std::uint64_t path_switches = 0;
  std::uint64_t reports_delivered = 0;
  std::uint64_t report_gaps = 0;
  std::uint64_t weighted_decisions = 0;
  std::uint64_t flowlets_started = 0;
  std::uint64_t fib_delta_applies = 0;
  std::uint64_t fib_router_rebuilds = 0;
  std::uint64_t bgp_messages = 0;

  [[nodiscard]] Counters operator-(const Counters& o) const noexcept {
    return Counters{events - o.events,
                    fib_hits - o.fib_hits,
                    fib_lookups - o.fib_lookups,
                    pool_hits - o.pool_hits,
                    pool_misses - o.pool_misses,
                    wan_drops - o.wan_drops,
                    path_switches - o.path_switches,
                    reports_delivered - o.reports_delivered,
                    report_gaps - o.report_gaps,
                    weighted_decisions - o.weighted_decisions,
                    flowlets_started - o.flowlets_started,
                    fib_delta_applies - o.fib_delta_applies,
                    fib_router_rebuilds - o.fib_router_rebuilds,
                    bgp_messages - o.bgp_messages};
  }
  bool operator==(const Counters&) const = default;
};

/// Reads every counter of a built deployment: its WAN, its BGP network, its
/// sites and the reports its pairing or mesh delivered.
[[nodiscard]] Counters read_counters(tango::sim::Wan& wan, const tango::bgp::BgpNetwork& bgp,
                                     std::span<const tango::core::TangoNode* const> nodes,
                                     std::uint64_t reports_delivered);

/// The honest-run invariants of a built deployment: no auth, malformed or
/// no-tunnel drop, no rejected report, no WAN drop, reports flowing, and —
/// unless `late_replays_possible` — no replay drop.
void check_deployment(const tango::sim::Wan& wan,
                      std::span<const tango::core::TangoNode* const> nodes,
                      std::uint64_t reports_delivered, bool late_replays_possible,
                      std::vector<std::string>& violations);

/// Control-plane cost of one set-up.
struct SetupCounts {
  std::uint64_t bgp_messages = 0;
  std::uint64_t convergence_runs = 0;
  std::uint64_t paths = 0;
};

/// One workload as the runner drives it.  The instance is rebuilt from the
/// seed by every build(); everything between build() and drain() is fixed
/// work set by the seed and the run length.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh instance from the seed up to the point where the first
  /// packet can be sent.  This is what setup_s times.
  virtual void build() = 0;
  /// Destroys the live instance (untimed, before the next build).
  virtual void teardown() = 0;
  /// How many times the runner builds the instance before measuring it (the
  /// last build is the one measured).  Each build is a setup_s sample.  So
  /// that the samples span the run instead of one instant of the host's
  /// contention, an untraced run takes more: one on a spare instance before
  /// every laps_per_spare_setup()-th lap when that is nonzero, else
  /// setup_repeats() - 1 more builds after the measured phase.
  [[nodiscard]] virtual std::size_t setup_repeats() const = 0;
  [[nodiscard]] virtual std::size_t laps_per_spare_setup() const { return 0; }
  /// Starts the feedback, probing and scenario timers and runs the untimed
  /// warm-up traffic, then marks the application packets that follow as
  /// measured.
  virtual void warm_up() = 0;
  [[nodiscard]] virtual std::size_t laps() const = 0;
  /// Untimed: pre-generates lap `lap`'s inputs.
  virtual void prepare_lap(std::size_t lap) = 0;
  /// Timed: offers lap `lap`'s traffic and advances simulated time to the
  /// lap's end.
  virtual void run_lap(std::size_t lap) = 0;
  /// Untimed: stops the traffic, lets every packet in flight land, stops
  /// the recurring timers.
  virtual void drain() = 0;

  [[nodiscard]] virtual Counters counters() = 0;
  [[nodiscard]] virtual SetupCounts setup_counts() const = 0;
  /// Appends every violated invariant of the finished run.
  virtual void check(std::vector<std::string>& violations) const = 0;
  /// Replay drops at the app receiver of an honest run: packets (app or
  /// probe) that a delay spike reordered beyond the anti-replay window, a
  /// known program limit (see README.md).  Missing app packets up to this
  /// count are failed operations; any beyond it is a violation.
  [[nodiscard]] virtual std::uint64_t late_replay_drops() const { return 0; }

  [[nodiscard]] AppSink& sink() noexcept { return *sink_; }

 protected:
  /// Fresh accounting for a fresh instance.
  void reset_sink() { sink_ = std::make_unique<AppSink>(); }

 private:
  std::unique_ptr<AppSink> sink_ = std::make_unique<AppSink>();
};

/// Run parameters the command line sets.
struct RunSpec {
  std::uint64_t seed = 1;
  int seconds = 10;
};

[[nodiscard]] std::unique_ptr<Workload> make_pair_min_burst(const RunSpec& spec);
[[nodiscard]] std::unique_ptr<Workload> make_pair_mtu_auth(const RunSpec& spec);
[[nodiscard]] std::unique_ptr<Workload> make_mesh_churn(const RunSpec& spec);

/// `per_second` laps per requested second: calibrated so that a lap takes
/// about 1/per_second of a second on a quiet reference host (a Xeon at
/// 2.0 GHz); under neighbours' cache pressure a run takes up to ~1.5x longer.
[[nodiscard]] inline std::size_t lap_count(const RunSpec& spec, double per_second) {
  return static_cast<std::size_t>(static_cast<double>(spec.seconds) * per_second + 0.5);
}

}  // namespace perfbench
