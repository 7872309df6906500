// Shared plumbing of the end-to-end benchmark: options, the run report
// (metrics, model outputs, checked operations) and the pass loop that
// implements the steadiness protocol (warm-up pass discarded, then timed
// passes until the time budget is spent, medians reported).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cps/stage.hpp"
#include "topology/fabric.hpp"
#include "trace.hpp"

namespace perfbench {

/// Worker threads for every workload, pinned so runs on machines with a
/// different core count stay comparable (never the hardware default). Two
/// leave headroom on a 4-vCPU box: at 4, churn-648's many small fork-joins
/// made run-to-run spread twice as wide.
inline constexpr std::uint32_t kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;        ///< 128/324-node fabrics through the same code
  bool corrupt_lft = false;  ///< flip one LFT entry (self-test of the checks)
  bool pin_only = false;     ///< only the checked warm-up pass (pin writing)
  std::string spans_out;     ///< where the traced run writes its spans
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Deterministic model output, compared against the committed pins.
  void model(const std::string& key, const std::string& json_value) {
    model_[key] = json_value;
  }
  void model(const std::string& key, double value);
  void meta(const std::string& key, const std::string& json_value) {
    meta_[key] = json_value;
  }

  /// One checked operation: `failures` lists what went wrong (empty = ok).
  void operation(const std::vector<std::string>& failures);

  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& model() const {
    return model_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& meta() const {
    return meta_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> model_;
  std::map<std::string, std::string> meta_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Collects the failed checks of one operation.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// 64-bit FNV-1a of a byte string, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

/// JSON string literal.
[[nodiscard]] std::string json_string(const std::string& text);

/// Shortest round-trip decimal of a double.
[[nodiscard]] std::string json_number(double value);

/// JSON array of numbers.
[[nodiscard]] std::string json_list(const std::vector<double>& values);

/// The pass loop, which implements the steadiness protocol.
///
/// `setup()` builds the workload's state and returns the wall seconds of
/// the build; `pass(index)` runs one pass and returns its timed wall
/// seconds, recording its own checked operation. The first build and pass
/// 0 are warm-ups, never reported. Timed passes follow until `seconds` of
/// timed pass time have been spent and at least `min_passes` ran; between
/// them `setup_reps` timed builds are spread evenly over the run, so
/// set-up time and pass time sample the machine over the same stretch of
/// time instead of set-up sampling one short burst. In traced runs the
/// timed passes alternate traced (odd) / untraced (even), so the per-layer
/// numbers and the tracing overhead come from the same process; the builds
/// are traced too.
struct PassTimes {
  std::vector<double> untraced;  ///< timed passes with tracing off
  std::vector<double> traced;    ///< timed passes with tracing on
  std::vector<double> setup;     ///< timed set-up builds
};
[[nodiscard]] PassTimes run_passes(const Options& options, Tracer& tracer,
                                   int min_passes, int setup_reps,
                                   const std::function<double()>& setup,
                                   const std::function<double(int)>& pass);

/// A fixed-stride sample of `stages` Shift stages over n ranks:
/// displacements 1, 1 + d, 1 + 2d, ... with d = (n - 1) / stages.
[[nodiscard]] ftcf::cps::Sequence shift_sample(std::uint64_t n,
                                               std::size_t stages);

/// Median duration of the spans called `name`, skipping the first `skip`
/// (warm-up) occurrences.
[[nodiscard]] double span_median(const Tracer& tracer, const std::string& name,
                                 std::size_t skip = 0);

/// The end-to-end metrics of every workload: `setup_s` (median timed
/// build), `work_per_s` (`units_per_pass` over the median untraced pass),
/// `peak_rss_mb`, and `event_p50_ms` / `event_p95_ms`, the 50th and 95th
/// percentiles of `event_s` (linear interpolation between order
/// statistics, so the percentile reported never depends on the sample
/// count); `meta` records the sample count.
void report_end_to_end(Report& report, double units_per_pass,
                       const PassTimes& times,
                       const std::vector<double>& event_s,
                       const std::string& event);

/// `<layer>_s` per-layer metrics from the set-up spans `<layer>`, skipping
/// the discarded warm-up build.
void report_setup_spans(const Tracer& tracer,
                        const std::vector<std::string>& layers,
                        Report& report);

/// `routing.lft_mb`: switches x hosts x one 4-byte LFT entry.
void report_lft_size(const ftcf::topo::Fabric& fabric, Report& report);

/// Per-layer numbers every traced run reports: the par.<label>.* sink
/// figures per pass (or per build or call, see ParSummary), the tracing
/// overhead against the untraced passes of the same run, and how much of
/// each traced pass the layer spans cover.
void report_trace_summary(const Tracer& tracer, const PassTimes& times,
                          Report& report);

/// Workload entry points; each fills the report and returns nothing.
void run_audit(const Options& options, Tracer& tracer, Report& report);
void run_sim(const Options& options, Tracer& tracer, Report& report);
void run_churn(const Options& options, Tracer& tracer, Report& report);

/// Per-layer metric names every traced run prints. Workloads set the ones
/// they measure; the rest read 0 (the workload never enters that layer).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

}  // namespace perfbench
