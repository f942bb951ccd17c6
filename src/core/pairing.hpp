// TangoPairing: the cooperation between the two edge networks.
//
// "It takes two": the receiver of each direction owns the authoritative
// one-way measurements, and the sender needs them to choose paths.  The
// pairing is the paper's building block and the N-site mesh is its
// generalization (§6), so the pairing owns no loop of its own: it holds a
// two-site TangoMesh, whose feedback and policy ticks ship each receiver's
// per-path reports back to the opposite sender (with a configurable
// control-channel delay) and trigger the senders' policy evaluations.
//
// Only establish() differs from the mesh's: each direction discovers over
// the peer's whole prefix pool with path ids 1..k, where the mesh slices
// pools and renumbers ids into one shared space.  The id picks the tunnel's
// outer UDP source port (kTunnelPortBase + id), so renumbering would change
// the pairing's wire bytes.
#pragma once

#include "core/mesh.hpp"

namespace tango::core {

class TangoPairing {
 public:
  /// Both nodes and the WAN must outlive the pairing.
  TangoPairing(sim::Wan& wan, TangoNode& a, TangoNode& b, PairingOptions options = {});

  /// Runs discovery in both directions (A's outbound paths, then B's) and
  /// returns both results.  Idempotent setup step.
  std::pair<DiscoveryResult, DiscoveryResult> establish();

  /// Schedules the recurring feedback + policy ticks on the WAN's event
  /// queue.  They run until stop() or the end of the simulation.
  void start() { mesh_.start(); }

  /// Stops scheduling further iterations (in-flight reports still land).
  void stop() noexcept { mesh_.stop(); }

  [[nodiscard]] bool running() const noexcept { return mesh_.running(); }
  /// Reports the senders accepted (parsed, authenticated, fresh, compliant).
  [[nodiscard]] std::uint64_t reports_delivered() const noexcept {
    return mesh_.reports_delivered();
  }
  /// Reports swallowed by the suppress_report hook before shipping.
  [[nodiscard]] std::uint64_t reports_suppressed() const noexcept {
    return mesh_.reports_suppressed();
  }

 private:
  TangoMesh mesh_;  ///< sites A (0) and B (1)
};

}  // namespace tango::core
