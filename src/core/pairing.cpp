#include "core/pairing.hpp"

namespace tango::core {

TangoPairing::TangoPairing(sim::Wan& wan, TangoNode& a, TangoNode& b, PairingOptions options)
    : mesh_{wan, options} {
  mesh_.add_site(a);
  mesh_.add_site(b);
}

std::pair<DiscoveryResult, DiscoveryResult> TangoPairing::establish() {
  TangoNode& a = mesh_.site(0);
  TangoNode& b = mesh_.site(1);
  DiscoveryResult a_out = a.discover_outbound(b);
  DiscoveryResult b_out = b.discover_outbound(a);
  return {std::move(a_out), std::move(b_out)};
}

}  // namespace tango::core
