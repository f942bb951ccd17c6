// One measured phase of a workload: warm-up, equal laps of fixed work,
// drain, and the output checks.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Phase {
  std::vector<double> lap_wall_s;
  std::vector<double> lap_rate;  ///< app packets delivered in the lap / lap wall time
  Counters delta;                ///< counter change over the laps
  std::uint64_t allocs = 0;      ///< operator new calls inside the laps
  std::uint64_t offered = 0;
  std::uint64_t unique = 0;
  std::uint64_t digest = 0;
  std::optional<double> owd_p50_ms;
  std::optional<double> owd_p99_ms;
  std::vector<double> setup_s;  ///< set-up samples taken between laps

  [[nodiscard]] double wall_s() const;
  /// The per-run throughput: the highest lap rate with at least
  /// kMinSamplesBeyond laps faster than it (the 11th-fastest lap).
  /// Neighbours' cache pressure comes in phases of seconds that slow every
  /// lap inside them; this reads the program's speed in the run's quietest
  /// spells, which a slower program slows too.
  [[nodiscard]] double pkts_per_s() const;
  /// Everything that must repeat exactly for one seed.
  [[nodiscard]] bool same_work(const Phase& o) const {
    return delta == o.delta && allocs == o.allocs && offered == o.offered &&
           unique == o.unique && digest == o.digest && owd_p50_ms == o.owd_p50_ms &&
           owd_p99_ms == o.owd_p99_ms;
  }
};

/// Runs warm_up, every lap (timed, with `tracer` as g_tracer when given),
/// drain and the checks on `w`'s live instance.  Appends every violated
/// invariant to `violations`.  With a `spare` workload, a set-up of the
/// spare is timed (outside the laps) before every w.laps_per_spare_setup()-th
/// lap, into Phase::setup_s.
[[nodiscard]] Phase run_phase(Workload& w, Tracer* tracer, std::vector<std::string>& violations,
                              Workload* spare = nullptr);

}  // namespace perfbench
