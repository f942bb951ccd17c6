// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <pair_min_burst|pair_mtu_auth|mesh_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// One single-threaded process; every link is simulated.  A run builds the
// workload's instance several times (setup_s is the median), warms it up,
// then measures a fixed amount of work — set by the workload, the seed and
// --seconds, never by the wall clock — split into equal laps.  Host-time
// figures come from the laps; simulated figures from the benchmark's own
// receiver accounting.  The run checks its outputs and exits nonzero on a
// violation.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the measured
// phase twice on two builds of the same seed, untraced then traced, demands
// that every count and the delivery digest repeat exactly, and prints the
// per-layer metrics: counters from the program's public accessors and the
// self times of spans wrapped around each public call.  Its spans are kept
// in memory and written to --trace-out at exit.
//
// The last line of standard output is the result object; the line before it
// is the run record (host fingerprint, lap quartiles, digest, counts).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "runner.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  RunSpec spec;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <pair_min_burst|pair_mtu_auth|"
               "mesh_churn> --seed <n> --seconds <1..600> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.spec.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.spec.seconds = std::stoi(value);
        if (a.spec.seconds < 1 || a.spec.seconds > 600) usage("--seconds out of range");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const RunSpec& spec) {
  if (name == "pair_min_burst") return make_pair_min_burst(spec);
  if (name == "pair_mtu_auth") return make_pair_mtu_auth(spec);
  if (name == "mesh_churn") return make_mesh_churn(spec);
  usage(("unknown workload " + name).c_str());
}

// --- Host ------------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string read_first_line(const std::string& path) {
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of cpu0's cache of `level` (unified or data), as sysfs prints it.
std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    if (read_first_line(dir + "level") != std::to_string(level)) continue;
    if (read_first_line(dir + "type") == "Instruction") continue;
    return read_first_line(dir + "size");
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Output -------------------------------------------------------------------------

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream o;
    o << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) o << ", ";
      o << '"' << entries_[i].name << "\": {\"value\": " << num(entries_[i].value)
        << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    o << '}';
    return o.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

std::string counts_json(const Phase& ph, const SetupCounts& sc) {
  const Counters& c = ph.delta;
  std::ostringstream o;
  o << "{\"offered\": " << ph.offered << ", \"delivered\": " << ph.unique
    << ", \"allocs\": " << ph.allocs << ", \"events\": " << c.events
    << ", \"fib_lookups\": " << c.fib_lookups << ", \"fib_hits\": " << c.fib_hits
    << ", \"pool_hits\": " << c.pool_hits << ", \"pool_misses\": " << c.pool_misses
    << ", \"wan_drops\": " << c.wan_drops << ", \"path_switches\": " << c.path_switches
    << ", \"reports_delivered\": " << c.reports_delivered
    << ", \"report_gaps\": " << c.report_gaps
    << ", \"weighted_decisions\": " << c.weighted_decisions
    << ", \"flowlets_started\": " << c.flowlets_started
    << ", \"fib_delta_applies\": " << c.fib_delta_applies
    << ", \"fib_router_rebuilds\": " << c.fib_router_rebuilds
    << ", \"churn_bgp_messages\": " << c.bgp_messages
    << ", \"setup_bgp_messages\": " << sc.bgp_messages
    << ", \"setup_convergence_runs\": " << sc.convergence_runs << ", \"paths\": " << sc.paths
    << '}';
  return o.str();
}

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i > 0 ? ", " : "") + num(v[i]);
  return out + "]";
}

std::string quartiles_json(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return list_json({q[0], q[1], q[2]});
}

void write_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out{path};
  out << "{\"spans_recorded\": " << tracer.recorded() << ", \"aggregate\": {";
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    const SpanStats& s = tracer.stats(static_cast<SpanId>(i));
    out << (i > 0 ? ", " : "") << '"' << span_name(static_cast<SpanId>(i))
        << "\": {\"count\": " << s.count << ", \"total_ns\": " << s.total_ns
        << ", \"self_ns\": " << s.self_ns() << ", \"allocs\": " << s.allocs
        << ", \"self_allocs\": " << s.self_allocs() << '}';
  }
  out << "}, \"recent\": [";
  const auto recent = tracer.recent();
  for (std::size_t i = 0; i < recent.size(); ++i) {
    const SpanRecord& r = recent[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\": \"" << span_name(r.id)
        << "\", \"parent\": \"" << (r.parent == SpanId::count ? "" : span_name(r.parent))
        << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns << '}';
  }
  out << "]}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write trace file %s\n", path.c_str());
}

/// Per-layer metrics of a traced run.  Measured-phase spans are totals over
/// the phase (per offered app packet where named _per_pkt); set-up spans are
/// means over the run's set-ups.  Spans that some workload never records
/// (the pairs have no churn, and make_vultr_scenario converges BGP as it
/// goes) are given as a share of the set-up or lap time, so that a workload
/// without them reads a share of 0 rather than a constant time.
void add_layer_metrics(Metrics& m, const Phase& plain, const Phase& traced, const Tracer& run,
                       const Tracer& setup, const std::vector<double>& setup_s,
                       const SetupCounts& sc) {
  const double pkts = static_cast<double>(plain.offered);
  const Counters& c = plain.delta;
  const auto per_pkt = [&](SpanId id) { return static_cast<double>(run.stats(id).self_ns()) / pkts; };
  const auto self_ms = [](const Tracer& t, SpanId id, double div) {
    return static_cast<double>(t.stats(id).self_ns()) / 1e6 / div;
  };
  const auto share = [](const Tracer& t, SpanId id, double wall_ns) {
    return static_cast<double>(t.stats(id).self_ns()) / wall_ns;
  };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const SpanStats& sim_run = run.stats(SpanId::sim_run);

  m.add("dataplane.send.self_ns_per_pkt", per_pkt(SpanId::dataplane_send), "ns");
  m.add("dataplane.send.allocs", static_cast<double>(run.stats(SpanId::dataplane_send).self_allocs()),
        "count");
  m.add("sim.run.self_ns_per_pkt", per_pkt(SpanId::sim_run), "ns");
  m.add("sim.run.p50_us", sim_run.durations.percentile(0.50).value_or(0) / 1e3, "us");
  m.add("sim.run.p99_us", sim_run.durations.percentile(0.99).value_or(0) / 1e3, "us");
  m.add("sim.run.allocs", static_cast<double>(sim_run.self_allocs()), "count");
  m.add("sim.events_per_pkt", static_cast<double>(c.events) / pkts, "count");
  m.add("sim.fib_cache_hit_rate", ratio(c.fib_hits, c.fib_lookups), "frac");
  m.add("sim.pool_hit_rate", ratio(c.pool_hits, c.pool_hits + c.pool_misses), "frac");
  m.add("sim.drops_per_kpkt", static_cast<double>(c.wan_drops) * 1000.0 / pkts, "count");
  const auto n_setups = static_cast<double>(setup_s.size());
  double setup_wall_ns = 0;
  for (double t : setup_s) setup_wall_ns += t * 1e9;
  m.add("topo.build.self_ms", self_ms(setup, SpanId::topo_build, n_setups), "ms");
  m.add("bgp.flood.self_frac", share(setup, SpanId::bgp_flood, setup_wall_ns), "frac");
  m.add("sim.wan_build.self_ms", self_ms(setup, SpanId::sim_wan_build, n_setups), "ms");
  m.add("core.establish.self_ms", self_ms(setup, SpanId::core_establish, n_setups), "ms");
  m.add("core.establish.convergence_runs", static_cast<double>(sc.convergence_runs), "count");
  m.add("bgp.messages", static_cast<double>(sc.bgp_messages), "count");
  m.add("core.paths", static_cast<double>(sc.paths), "count");
  const auto lap_wall_ns = static_cast<double>(run.stats(SpanId::measure).total_ns);
  m.add("bgp.churn.self_frac", share(run, SpanId::bgp_churn, lap_wall_ns), "frac");
  m.add("bgp.churn.messages", static_cast<double>(c.bgp_messages), "count");
  m.add("sim.fib_sync.self_frac", share(run, SpanId::sim_fib_sync, lap_wall_ns), "frac");
  m.add("sim.fib_sync.delta_applies", static_cast<double>(c.fib_delta_applies), "count");
  m.add("sim.fib_sync.router_rebuilds", static_cast<double>(c.fib_router_rebuilds), "count");
  m.add("allocs_per_pkt", static_cast<double>(plain.allocs) / pkts, "count");
  m.add("core.path_switches", static_cast<double>(c.path_switches), "count");
  m.add("core.reports_delivered", static_cast<double>(c.reports_delivered), "count");
  m.add("core.report_gaps", static_cast<double>(c.report_gaps), "count");
  m.add("core.weighted_decisions", static_cast<double>(c.weighted_decisions), "count");
  m.add("core.flowlets_started", static_cast<double>(c.flowlets_started), "count");
  m.add("bench.gen.self_ns_per_pkt", per_pkt(SpanId::bench_gen), "ns");
  m.add("bench.deliver.self_ns_per_pkt", per_pkt(SpanId::bench_deliver), "ns");
  m.add("trace.overhead_frac", 1.0 - traced.pkts_per_s() / plain.pkts_per_s(), "frac");
  std::int64_t layers_self = 0;
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    const auto id = static_cast<SpanId>(i);
    if (id != SpanId::measure) layers_self += run.stats(id).self_ns();
  }
  m.add("trace.coverage_frac",
        static_cast<double>(layers_self) / static_cast<double>(run.stats(SpanId::measure).total_ns),
        "frac");
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.spec);
  std::vector<std::string> violations;

  // Set-up, repeated; the median is setup_s and the last build is measured.
  Tracer setup_tracer{0};
  std::vector<double> setup_s;
  const auto timed_builds = [&](std::size_t n, Tracer* tracer) {
    for (std::size_t i = 0; i < n; ++i) {
      w->teardown();
      g_tracer = tracer;
      const std::int64_t t0 = host_now_ns();
      w->build();
      setup_s.push_back(static_cast<double>(host_now_ns() - t0) / 1e9);
      g_tracer = nullptr;
    }
  };
  timed_builds(w->setup_repeats(), args.trace ? &setup_tracer : nullptr);
  const SetupCounts setup_counts = w->setup_counts();

  std::unique_ptr<Workload> spare;
  if (w->laps_per_spare_setup() > 0 && !args.trace) spare = make_workload(args.workload, args.spec);
  const Phase plain = run_phase(*w, nullptr, violations, spare.get());
  setup_s.insert(setup_s.end(), plain.setup_s.begin(), plain.setup_s.end());
  if (w->laps_per_spare_setup() == 0 && !args.trace) timed_builds(w->setup_repeats() - 1, nullptr);

  Metrics metrics;
  if (args.trace) {
    w->teardown();
    w->build();
    Tracer tracer;
    const Phase traced = run_phase(*w, &tracer, violations);
    // Exact-count self-check: the same seed must redo exactly the same work.
    if (!traced.same_work(plain)) {
      violations.push_back("two measured phases of one seed differ in counts or deliveries: " +
                           counts_json(plain, setup_counts) + " vs " +
                           counts_json(traced, setup_counts));
    }
    if (tracer.depth() != 0) violations.push_back("unbalanced spans");
    add_layer_metrics(metrics, plain, traced, tracer, setup_tracer, setup_s, setup_counts);
    if (!args.trace_out.empty()) write_trace(args.trace_out, tracer);
  } else {
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("pkts_per_s", plain.pkts_per_s(), "pkts/s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.add("app_owd_p50_ms", plain.owd_p50_ms.value_or(0.0), "ms");
    metrics.add("app_owd_p99_ms", plain.owd_p99_ms.value_or(0.0), "ms");
    metrics.add("app_delivered_frac",
                plain.offered == 0 ? 0.0
                                   : static_cast<double>(plain.unique) /
                                         static_cast<double>(plain.offered),
                "frac");
  }

  // Run record: host fingerprint, lap quartiles, digest and counts.
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": \"" << args.workload << "\", \"seed\": " << args.spec.seed
      << ", \"seconds\": " << args.spec.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"host\": {\"cores\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
      << json_escape(cpu_model()) << "\", \"l2\": \"" << cache_size(2) << "\", \"l3\": \""
      << cache_size(3) << "\", \"compiler\": \"" << json_escape(__VERSION__)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}"
      << ", \"setup_s\": " << quartiles_json(setup_s) << ", \"laps\": " << plain.lap_wall_s.size()
      << ", \"lap_wall_s\": " << quartiles_json(plain.lap_wall_s)
      << ", \"lap_pkts_per_s\": " << quartiles_json(plain.lap_rate)
      << ", \"lap_pkts_per_s_all\": " << list_json(plain.lap_rate)
      << ", \"measured_wall_s\": " << num(plain.wall_s()) << ", \"digest\": \"" << std::hex
      << plain.digest << std::dec << "\", \"counts\": " << counts_json(plain, setup_counts)
      << ", \"violations\": " << violations.size() << "}}";
  std::printf("%s\n", rec.str().c_str());
  for (const std::string& v : violations) std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());

  const std::uint64_t failed = plain.offered - plain.unique;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(plain.offered),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
