// Shared fixture for the reproduction benches: the Vultr scenario wired to
// a WAN, two Tango nodes, and helpers for probing and reporting.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pairing.hpp"
#include "net/siphash.hpp"
#include "sim/events.hpp"
#include "telemetry/observability.hpp"
#include "telemetry/table.hpp"
#include "topo/vultr_scenario.hpp"

namespace tango::bench {

using namespace topo::vultr;

/// Truthiness of an environment flag, the one way every bench interprets it:
/// set and not literally "0" means on ("", "1", "true", "yes" all count).
[[nodiscard]] inline bool env_flag_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::strcmp(value, "0") != 0;
}

/// CI's reduced-duration mode, shared by every bench (TANGO_BENCH_QUICK).
[[nodiscard]] inline bool quick_mode() { return env_flag_set("TANGO_BENCH_QUICK"); }

/// The full measurement-study stack, established and ready to probe.
struct Testbed {
  topo::VultrScenario scenario;
  sim::Wan wan;
  core::TangoNode la;
  core::TangoNode ny;
  core::TangoPairing pairing;
  core::DiscoveryResult la_outbound;  // paths LA -> NY
  core::DiscoveryResult ny_outbound;  // paths NY -> LA

  /// Default clock offsets are sub-millisecond (NTP-grade, like the paper's
  /// servers): visible in absolute numbers, harmless in comparisons.
  /// `backend` selects the WAN event scheduler (the heap fallback exists so
  /// the throughput bench can gate the timing wheel against its baseline).
  /// `obs` (optional) wires one metrics registry + packet tracer through the
  /// WAN and both nodes, labeled "la"/"ny" — the instrumented configuration
  /// the telemetry-overhead bench measures against an unwired twin.
  /// `fib_sync` selects incremental delta application or the full-rebuild
  /// oracle (see sim::FibSync) — the chaos soak runs both and compares.
  /// `auth_key` keys both nodes with the same pairing secret (authenticated
  /// data path + report envelopes); `pairing_options` reaches the feedback
  /// loop (the chaos soak's suppression twin installs its on-path adversary
  /// hook here).
  explicit Testbed(std::uint64_t seed, bool keep_series = true,
                   sim::Time la_clock_offset = 500 * sim::kMicrosecond,
                   sim::Time ny_clock_offset = -300 * sim::kMicrosecond,
                   sim::EventQueue::Backend backend = sim::EventQueue::Backend::timing_wheel,
                   telemetry::Observability obs = {},
                   sim::FibSync fib_sync = sim::FibSync::incremental,
                   std::optional<net::SipHashKey> auth_key = std::nullopt,
                   core::PairingOptions pairing_options = {})
      : scenario{topo::make_vultr_scenario()},
        wan{scenario.topo, sim::Rng{seed},
            sim::WanOptions{.backend = backend, .fib_sync = fib_sync}},
        la{scenario.topo, wan,
           core::NodeConfig{
               .router = kServerLa,
               .host_prefix = scenario.plan.la_hosts,
               .tunnel_prefix_pool = {scenario.plan.la_tunnel.begin(),
                                      scenario.plan.la_tunnel.end()},
               .edge_asns = {kAsnVultr, kAsnServerLa},
               .clock = sim::NodeClock{la_clock_offset},
               .keep_series = keep_series,
               .auth_key = auth_key,
               .name = "la",
               .obs = obs}},
        ny{scenario.topo, wan,
           core::NodeConfig{
               .router = kServerNy,
               .host_prefix = scenario.plan.ny_hosts,
               .tunnel_prefix_pool = {scenario.plan.ny_tunnel.begin(),
                                      scenario.plan.ny_tunnel.end()},
               .edge_asns = {kAsnVultr, kAsnServerNy},
               .clock = sim::NodeClock{ny_clock_offset},
               .keep_series = keep_series,
               .auth_key = auth_key,
               .name = "ny",
               .obs = obs}},
        pairing{wan, la, ny, pairing_options} {
    wan.wire_observability(obs);
    auto [la_out, ny_out] = pairing.establish();
    la_outbound = std::move(la_out);
    ny_outbound = std::move(ny_out);
  }

  /// Time series of NY->LA one-way delay for outbound path `id` (recorded at
  /// LA's receiver).  Valid when keep_series was set.
  [[nodiscard]] const telemetry::TimeSeries& ny_to_la_series(core::PathId id) {
    return la.dp().receiver().tracker(id)->series();
  }

  /// Label of NY->LA path `id`.
  [[nodiscard]] std::string ny_to_la_label(core::PathId id) const {
    const core::DiscoveredPath* p = ny.registry().find(id);
    return p != nullptr ? p->label : "path-" + std::to_string(id);
  }
};

inline void print_header(const char* experiment, const char* description,
                         std::uint64_t seed) {
  std::printf("==================================================================\n");
  std::printf("%s\n%s\nseed=%llu\n", experiment, description,
              static_cast<unsigned long long>(seed));
  std::printf("==================================================================\n\n");
}

// --- JSON emission -----------------------------------------------------------
// One writer for every bench that reports machine-readable results.  Handles
// indentation, comma placement and number formatting so the bench bodies list
// fields instead of hand-rolling fprintf punctuation.

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open("{", nullptr); }
  JsonWriter& begin_object(const char* key) { return open("{", key); }
  JsonWriter& end_object() { return close("}"); }
  JsonWriter& begin_array(const char* key) { return open("[", key); }
  JsonWriter& end_array() { return close("]"); }

  JsonWriter& field(const char* key, const std::string& value) {
    prefix(key);
    out_ << '"' << value << '"';
    return *this;
  }
  JsonWriter& field(const char* key, double value, int precision = 3) {
    prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    out_ << buf;
    return *this;
  }
  JsonWriter& field(const char* key, std::uint64_t value) {
    prefix(key);
    out_ << value;
    return *this;
  }

  /// A previously serialized JSON value, embedded verbatim.
  JsonWriter& raw(const char* key, const std::string& json) {
    prefix(key);
    out_ << json;
    return *this;
  }

  [[nodiscard]] std::string str() const { return out_.str() + "\n"; }

  /// Writes the document to `path`; exits the bench on I/O failure so a
  /// silent half-written report can never pass CI.
  void write_file(const std::filesystem::path& path) const {
    std::ofstream out{path};
    out << str();
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path.string().c_str());
      std::exit(1);
    }
  }

 private:
  JsonWriter& open(const char* brace, const char* key) {
    prefix(key);
    out_ << brace;
    ++depth_;
    fresh_scope_ = true;
    return *this;
  }
  JsonWriter& close(const char* brace) {
    --depth_;
    if (!fresh_scope_) newline_indent();
    out_ << brace;
    fresh_scope_ = false;
    return *this;
  }
  void prefix(const char* key) {
    if (depth_ > 0) {
      if (!fresh_scope_) out_ << ',';
      newline_indent();
    }
    fresh_scope_ = false;
    if (key != nullptr) out_ << '"' << key << "\": ";
  }
  void newline_indent() {
    out_ << '\n';
    for (int i = 0; i < depth_; ++i) out_ << "  ";
  }

  std::ostringstream out_;
  int depth_ = 0;
  bool fresh_scope_ = true;
};

// --- Benchmark run history ---------------------------------------------------
// Benches append one record per run (git SHA, date, headline metrics) to a
// history file at the repo root, so the committed JSON carries the perf
// trajectory across PRs instead of only the latest numbers.

/// Nearest ancestor of the current directory containing `.git`; empty when
/// the bench runs outside a checkout (extracted artifact, installed tree).
inline std::filesystem::path find_repo_root() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::path dir = fs::current_path(ec); !dir.empty(); dir = dir.parent_path()) {
    if (fs::exists(dir / ".git", ec)) return dir;
    if (dir == dir.root_path()) break;
  }
  return {};
}

inline std::string git_head_sha() {
  std::string sha;
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      sha.assign(buf);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
    }
    ::pclose(p);
  }
  return sha.empty() ? "unknown" : sha;
}

inline std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The per-run detail report goes to the working directory — unless that *is*
/// the repo root, where `<stem>.json` is the committed history; then the
/// detail file steps aside to `<stem>.latest.json`.
inline std::filesystem::path detail_report_path(const std::string& stem) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!find_repo_root().empty() && fs::equivalent(fs::current_path(ec), find_repo_root(), ec)) {
    return stem + ".latest.json";
  }
  return stem + ".json";
}

/// Appends `record` (a serialized JSON object) to `{"runs": [...]}` in
/// `<repo-root>/<stem>.json`.  Prior records are preserved verbatim.  Outside
/// a checkout this is a no-op (nothing durable to append to); returns whether
/// a record was written.
inline bool append_run_history(const std::string& stem, const std::string& record) {
  namespace fs = std::filesystem;
  // Quick-mode numbers are measured at CI-smoke scale; appending them would
  // corrupt trend comparisons against full-scale records, so they stay out
  // of the committed history entirely.
  if (quick_mode()) {
    std::printf("quick mode: run record NOT appended to %s.json (history keeps full-scale runs)\n",
                stem.c_str());
    return false;
  }
  const fs::path root = find_repo_root();
  if (root.empty()) return false;
  const fs::path file = root / (stem + ".json");

  std::string prior;
  if (std::ifstream in{file}; in) {
    std::ostringstream all;
    all << in.rdbuf();
    const std::string text = all.str();
    const std::size_t open = text.find('[');
    const std::size_t close = text.rfind(']');
    if (open != std::string::npos && close != std::string::npos && close > open) {
      prior = text.substr(open + 1, close - open - 1);
      while (!prior.empty() && std::isspace(static_cast<unsigned char>(prior.back()))) {
        prior.pop_back();
      }
    }
  }

  std::ofstream out{file, std::ios::trunc};
  out << "{\n  \"runs\": [";
  if (!prior.empty()) out << prior << ",";
  out << "\n" << record << "\n  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot update %s\n", file.string().c_str());
    std::exit(1);
  }
  return true;
}

}  // namespace tango::bench
