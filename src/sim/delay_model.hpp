// Link delay models: a base distribution (from the topology's LinkProfile)
// plus a stack of time-windowed modifiers that scenario events (route
// changes, instability storms) push on and pop off.
#pragma once

#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"

namespace tango::sim {

/// Base delay distribution of a link.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// One sample in milliseconds at true time `now`.
  [[nodiscard]] virtual double sample_ms(Rng& rng, Time now) = 0;

  /// The distribution floor (used for clipping after modifiers subtract).
  [[nodiscard]] virtual double floor_ms() const noexcept = 0;
};

/// Constant delay.
class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(double ms) : ms_{ms} {}
  [[nodiscard]] double sample_ms(Rng&, Time) override { return ms_; }
  [[nodiscard]] double floor_ms() const noexcept override { return ms_; }

 private:
  double ms_;
};

/// base + |N(0, sigma)| folded at the floor: a link whose delay is its
/// propagation floor plus small symmetric queueing noise, never below floor.
class GaussianJitterDelay final : public DelayModel {
 public:
  GaussianJitterDelay(double base_ms, double sigma_ms, double floor_ms)
      : base_{base_ms}, sigma_{sigma_ms}, floor_{floor_ms} {}

  [[nodiscard]] double sample_ms(Rng& rng, Time) override {
    const double v = rng.gaussian(base_, sigma_);
    return v < floor_ ? floor_ + (floor_ - v) : v;  // reflect below-floor samples
  }
  [[nodiscard]] double floor_ms() const noexcept override { return floor_; }

 private:
  double base_;
  double sigma_;
  double floor_;
};

/// base + Gamma(shape, scale): queueing-style positive-skew jitter.
class GammaJitterDelay final : public DelayModel {
 public:
  GammaJitterDelay(double base_ms, double shape, double scale_ms)
      : base_{base_ms}, shape_{shape}, scale_{scale_ms} {}

  [[nodiscard]] double sample_ms(Rng& rng, Time) override {
    return base_ + rng.gamma(shape_, scale_);
  }
  [[nodiscard]] double floor_ms() const noexcept override { return base_; }

 private:
  double base_;
  double shape_;
  double scale_;
};

/// A time-windowed perturbation of a link's delay.  Active while
/// start <= now < end.  Models the two §5 incident classes:
///
///  * route change: constant `shift_ms` (the +5 ms re-route) with optional
///    `transition_sigma_ms` noise near the window edges (the "brief period
///    of instability" around the change);
///  * instability storm: with probability `spike_prob` per packet, add
///    U(spike_min_ms, spike_max_ms); plus `noise_sigma_ms` of extra jitter.
struct DelayModifier {
  Time start = 0;
  Time end = 0;
  double shift_ms = 0.0;
  double noise_sigma_ms = 0.0;
  double spike_prob = 0.0;
  double spike_min_ms = 0.0;
  double spike_max_ms = 0.0;
  /// Width of the noisy transition region at each window edge (0 = sharp).
  Time transition = 0;
  double transition_sigma_ms = 0.0;

  [[nodiscard]] bool active(Time now) const noexcept { return now >= start && now < end; }

  /// Extra delay contributed at `now` (only call when active).
  [[nodiscard]] double sample_extra_ms(Rng& rng, Time now) const;
};

/// Base model + modifier stack.  The WAN owns one per directed link.
class CompositeDelayModel {
 public:
  explicit CompositeDelayModel(std::unique_ptr<DelayModel> base) : base_{std::move(base)} {}

  [[nodiscard]] double sample_ms(Rng& rng, Time now);

  void add_modifier(const DelayModifier& m) { modifiers_.push_back(m); }

  /// Drops modifiers whose window has fully passed.
  void prune(Time now);

  [[nodiscard]] std::size_t modifier_count() const noexcept { return modifiers_.size(); }

 private:
  std::unique_ptr<DelayModel> base_;
  std::vector<DelayModifier> modifiers_;
};

/// Builds the base model a LinkProfile describes.
[[nodiscard]] std::unique_ptr<DelayModel> make_delay_model(const topo::LinkProfile& profile);

}  // namespace tango::sim
