// Benchmark-side tracing: spans recorded around each call into a library
// layer, from outside the library, plus the ftcf::par timing-sink hook.
//
// A span carries a name, start, end, its parent span and the id of the
// pass it belongs to (all spans of one pass share it). Spans stay in memory
// and are written out once, at exit. A span's self time is its duration
// minus the part covered by its children. When tracing is off, opening a
// span is a single branch and nothing is recorded.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index into spans(), -1 for a root
  std::uint32_t pass = 0;
};

/// One labelled top-level parallel loop, as reported by the par sink.
struct ParRecord {
  std::string label;
  double busy_s = 0.0;     ///< sum of the loop's task wall times
  std::size_t tasks = 0;
  int span = -1;           ///< innermost open span when the loop ended
};

/// One par label's sink records, per unit of work. A record is charged to
/// the root span it ended under: a pass, a set-up build, a one-off call.
/// When a label has records under "pass" roots only those count, so loops
/// in the untimed oracles and restores stay out. busy_s and tasks are the
/// medians over the units, so they do not grow with the number of traced
/// passes; efficiency is busy / (wall x threads) over the counted records,
/// wall being the layer spans the loops ran in.
struct ParSummary {
  double busy_s = 0.0;  ///< summed task wall time per unit
  double tasks = 0.0;   ///< tasks per unit
  double efficiency = 0.0;
  std::size_t units = 0;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turn span recording and the par timing sink on or off.
  void set_enabled(bool enabled);

  /// Spans opened from now on carry this pass id.
  void set_pass(std::uint32_t pass) noexcept { pass_ = pass; }

  /// Open a span under the innermost open one; -1 when tracing is off.
  int open(const char* name);
  void close(int span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Durations of every closed span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Duration minus the union of the children's intervals.
  [[nodiscard]] double self_seconds(std::size_t span) const;
  [[nodiscard]] std::map<std::string, ParSummary> par_summary(
      std::uint32_t threads) const;
  /// Labelled top-level parallel loops that ended inside spans named `name`.
  [[nodiscard]] std::size_t par_loops_within(const std::string& name) const;

  /// Write {"meta":..., "spans":[...], "par":[...]} to `path`.
  void write_json(const std::string& path,
                  const std::map<std::string, std::string>& meta) const;

  /// Called by the par sink; public for the C callback only.
  void record_par(const char* label, const double* task_seconds,
                  std::size_t num_tasks);

 private:
  [[nodiscard]] double now() const;
  [[nodiscard]] bool within(std::size_t span, const std::string& name) const;
  [[nodiscard]] std::size_t root_of(std::size_t span) const;

  bool enabled_ = false;
  std::uint32_t pass_ = 0;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices (owner thread)
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex par_mutex_;  ///< guards par_ (nested loops report from workers)
  std::vector<ParRecord> par_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), span_(tracer.open(name)) {}
  ~Scope() { tracer_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace perfbench
