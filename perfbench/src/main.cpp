// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload audit-11664|sim-1944|churn-648 --seed N
//             --seconds S --trace 0|1 [--quick] [--corrupt-lft]
//             [--spans-out PATH] [--pin-only]
//
// Prints, in order: a `model {...}` line with the deterministic model
// outputs (compared against the committed pins by run.py), a `meta {...}`
// line, and as its last line the result object
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Exits 1 when any checked operation failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "cps/generators.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void Report::model(const std::string& key, double value) {
  model_[key] = json_number(value);
}

void Report::operation(const std::vector<std::string>& failures) {
  ++attempted_;
  if (failures.empty()) return;
  ++failed_;
  for (const std::string& failure : failures) {
    std::cerr << "perfbench: check failed: " << failure << '\n';
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

/// Quantile q in [0, 1] of a sample, interpolating linearly between the
/// two nearest order statistics (0 for an empty sample).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  for (int digits = 15; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ',';
    out += json_number(v);
  }
  return out + ']';
}

PassTimes run_passes(const Options& options, Tracer& tracer, int min_passes,
                     int setup_reps, const std::function<double()>& setup,
                     const std::function<double(int)>& pass) {
  PassTimes out;
  const Clock::time_point start = Clock::now();
  tracer.set_enabled(options.trace);
  (void)setup();  // warm-up build: first-touch page faults, allocator growth
  tracer.set_enabled(false);
  (void)pass(0);  // warm-up pass, checked but not reported
  if (options.pin_only) return out;
  const auto build = [&] {
    tracer.set_pass(0);
    tracer.set_enabled(options.trace);
    out.setup.push_back(setup());
    tracer.set_enabled(false);
  };
  double spent = 0.0;
  for (int index = 1;; ++index) {
    const bool traced = options.trace && index % 2 == 1;
    tracer.set_pass(static_cast<std::uint32_t>(index));
    tracer.set_enabled(traced);
    const double wall = pass(index);
    tracer.set_enabled(false);
    (traced ? out.traced : out.untraced).push_back(wall);
    spent += wall;
    // Builds due by now, at `seconds / setup_reps` intervals of pass time.
    while (static_cast<int>(out.setup.size()) < setup_reps &&
           static_cast<double>(out.setup.size()) * options.seconds <
               spent * static_cast<double>(setup_reps)) {
      build();
    }
    const bool enough =
        options.trace ? out.traced.size() >= 2 && out.untraced.size() >= 2
                      : out.untraced.size() >= static_cast<std::size_t>(min_passes);
    if (spent >= options.seconds && enough) break;
    // Passes that fail early must not spin forever.
    if (seconds_since(start) > 4.0 * options.seconds + 60.0) break;
  }
  while (static_cast<int>(out.setup.size()) < setup_reps) build();
  return out;
}

ftcf::cps::Sequence shift_sample(std::uint64_t n, std::size_t stages) {
  ftcf::cps::Sequence seq{.name = "shift", .num_ranks = n, .stages = {}};
  const std::uint64_t stride = std::max<std::uint64_t>(1, (n - 1) / stages);
  for (std::uint64_t s = 1; s < n && seq.stages.size() < stages; s += stride) {
    seq.stages.push_back(ftcf::cps::shift_stage(n, s));
  }
  return seq;
}

double span_median(const Tracer& tracer, const std::string& name,
                   std::size_t skip) {
  std::vector<double> d = tracer.durations(name);
  if (d.size() <= skip) return 0.0;
  d.erase(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(skip));
  return median(std::move(d));
}

void report_end_to_end(Report& report, double units_per_pass,
                       const PassTimes& times,
                       const std::vector<double>& event_s,
                       const std::string& event) {
  const double pass_s = median(times.untraced);
  report.metric("setup_s", median(times.setup), "s");
  report.metric("work_per_s", pass_s > 0.0 ? units_per_pass / pass_s : 0.0,
                "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("event_p50_ms", 1e3 * quantile(event_s, 0.50), "ms");
  report.metric("event_p95_ms", 1e3 * quantile(event_s, 0.95), "ms");
  report.meta("event", json_string(event));
  report.meta("event_samples", std::to_string(event_s.size()));
  report.meta("pass_s", json_list(times.untraced));
  report.meta("setup_s", json_list(times.setup));
}

void report_setup_spans(const Tracer& tracer,
                        const std::vector<std::string>& layers,
                        Report& report) {
  for (const std::string& layer : layers) {
    report.metric(layer + "_s", span_median(tracer, layer, 1), "s");
  }
}

void report_lft_size(const ftcf::topo::Fabric& fabric, Report& report) {
  report.metric("routing.lft_mb",
                static_cast<double>(fabric.num_switches() * fabric.num_hosts() *
                                    sizeof(std::uint32_t)) /
                    1e6,
                "MB");
}

void report_trace_summary(const Tracer& tracer, const PassTimes& times,
                          Report& report) {
  for (const auto& [label, sum] : tracer.par_summary(kThreads)) {
    const std::string base = "par." + label;
    report.metric(base + ".busy_s", sum.busy_s, "s");
    report.metric(base + ".tasks", sum.tasks, "count");
    report.metric(base + ".efficiency", sum.efficiency, "ratio");
    report.meta(base + ".units", std::to_string(sum.units));
  }
  const double untraced = median(times.untraced);
  if (untraced > 0.0) {
    report.metric("trace.overhead_pct",
                  100.0 * (median(times.traced) / untraced - 1.0), "%");
  }
  std::vector<double> coverage;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    const double wall = span.end - span.start;
    if (span.name == "pass" && wall > 0.0) {
      coverage.push_back(1.0 - tracer.self_seconds(i) / wall);
    }
  }
  report.metric("trace.coverage", median(std::move(coverage)), "ratio");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"topology.build_s", "s"},
        {"ordering.build_s", "s"},
        {"cps.generate_s", "s"},
        {"routing.dmodk_s", "s"},
        {"routing.dmodk_s.t1", "s"},
        {"routing.dmodk_s.t2", "s"},
        {"routing.dmodk_s.t4", "s"},
        {"routing.lft_mb", "MB"},
        {"routing.repair_build_s", "s"},
        {"routing.repair_s", "s"},
        {"routing.repair_ms_p50", "ms"},
        {"routing.entries_changed", "count"},
        {"routing.degraded_oracle_s", "s"},
        {"analysis.hsd_topology_s", "s"},
        {"analysis.hsd_topology_s.t1", "s"},
        {"analysis.hsd_topology_s.t2", "s"},
        {"analysis.hsd_topology_s.t4", "s"},
        {"analysis.hsd_random_s", "s"},
        {"analysis.ns_per_flow_topology", "ns"},
        {"analysis.ns_per_flow_random", "ns"},
        {"analysis.flows", "count"},
        {"check.certify_s", "s"},
        {"check.ns_per_flow", "ns"},
        {"check.recertify_build_s", "s"},
        {"check.recertify_s", "s"},
        {"check.recertify_ms_p50", "ms"},
        {"check.flows_rewalked", "count"},
        {"check.rewalk_ratio", "ratio"},
        {"check.symbolic_s", "s"},
        {"check.full_certify_s", "s"},
        {"sim.traffic_build_s", "s"},
        {"sim.run_topology_s", "s"},
        {"sim.run_random_s", "s"},
        {"sim.ns_per_event", "ns"},
        {"sim.events_topology", "count"},
        {"sim.events_random", "count"},
        {"sim.packets", "count"},
        {"sim.events_per_packet", "ratio"},
        {"sim.pdes_p2_s", "s"},
        {"churn.timeline_s", "s"},
        {"churn.events", "count"},
        {"churn.cdg_s", "s"},
        {"par.forkjoins_per_event", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.coverage", "ratio"},
    };
    for (const char* label : {"dmodk.switch", "hsd.stage", "route.incremental",
                              "check.recertify", "churn.cdg"}) {
      const std::string base = std::string("par.") + label;
      m.emplace_back(base + ".busy_s", "s");
      m.emplace_back(base + ".tasks", "count");
      m.emplace_back(base + ".efficiency", "ratio");
    }
    return m;
  }();
  return kMetrics;
}

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"work_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"event_p50_ms", "ms"},
    {"event_p95_ms", "ms"},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload audit-11664|sim-1944|churn-648"
               " --seed N --seconds S --trace 0|1 [--quick] [--corrupt-lft]"
               " [--spans-out PATH] [--pin-only]\n";
  return 2;
}

std::string object(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    out += json_string(key) + ':' + value;
  }
  return out + '}';
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
        have_seconds = true;
      } else if (arg == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--spans-out" && has_value) {
        options.spans_out = argv[++i];
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--corrupt-lft") {
        options.corrupt_lft = true;
      } else if (arg == "--pin-only") {
        options.pin_only = true;
      } else {
        return usage(("unknown or incomplete argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!(options.seconds > 0.0) || options.seconds > 600.0)
    return usage("--seconds must be in (0, 600]");

  ftcf::par::set_default_threads(kThreads);
  Report report;
  Tracer tracer;
  try {
    if (options.workload == "audit-11664") {
      run_audit(options, tracer, report);
    } else if (options.workload == "sim-1944") {
      run_sim(options, tracer, report);
    } else if (options.workload == "churn-648") {
      run_churn(options, tracer, report);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.operation({std::string("workload aborted: ") + e.what()});
  }
  tracer.set_enabled(false);

  std::map<std::string, std::string> meta = report.meta();
  meta["workload"] = json_string(options.workload);
  meta["seed"] = std::to_string(options.seed);
  meta["seconds"] = json_number(options.seconds);
  meta["trace"] = options.trace ? "1" : "0";
  meta["quick"] = options.quick ? "true" : "false";
  meta["threads"] = std::to_string(kThreads);
  meta["num_cpus"] = std::to_string(ftcf::par::hardware_threads());
  meta["compiler"] = json_string(PERFBENCH_COMPILER);
  meta["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  if (options.trace && !options.spans_out.empty()) {
    try {
      tracer.write_json(options.spans_out, meta);
      meta["spans_file"] = json_string(options.spans_out);
    } catch (const std::exception& e) {
      report.operation({e.what()});
    }
  }

  std::map<std::string, std::string> metrics;
  const auto& wanted = options.trace ? per_layer_metrics() : kEndToEnd;
  for (const auto& [name, unit] : wanted) {
    const auto it = report.metrics().find(name);
    const double value = it == report.metrics().end() ? 0.0 : it->second.value;
    metrics[name] = "{\"unit\":" + json_string(unit) +
                    ",\"value\":" + json_number(value) + '}';
  }
  std::cout << "model " << object(report.model()) << '\n';
  std::cout << "meta " << object(meta) << '\n';
  std::cout << "{\"correct\":" << (report.failed() == 0 ? "true" : "false")
            << ",\"attempted\":" << report.attempted()
            << ",\"failed\":" << report.failed()
            << ",\"metrics\":" << object(metrics) << "}" << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
