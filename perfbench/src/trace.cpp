#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

Tracer* g_active = nullptr;  // the tracer the par sink reports to

void par_sink(const char* label, const double* task_seconds,
              std::size_t num_tasks) {
  if (g_active != nullptr) g_active->record_par(label, task_seconds, num_tasks);
}

}  // namespace

Tracer::Tracer()
    : owner_(std::this_thread::get_id()),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  if (g_active == this) {
    ftcf::par::set_timing_sink(nullptr);
    g_active = nullptr;
  }
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::set_enabled(bool enabled) {
  enabled_ = enabled;
  g_active = enabled ? this : nullptr;
  ftcf::par::set_timing_sink(enabled ? &par_sink : nullptr);
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.pass = pass_;
  span.start = now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now();
  // Spans close in LIFO order on the owner thread.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::record_par(const char* label, const double* task_seconds,
                        std::size_t num_tasks) {
  ParRecord record;
  record.label = label;
  record.tasks = num_tasks;
  for (std::size_t t = 0; t < num_tasks; ++t) record.busy_s += task_seconds[t];
  // Only the owner thread may read the open-span stack; loops nested in a
  // worker report without an enclosing span.
  if (std::this_thread::get_id() == owner_ && !open_.empty()) {
    record.span = open_.back();
  }
  const std::lock_guard<std::mutex> lock(par_mutex_);
  par_.push_back(std::move(record));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double Tracer::self_seconds(std::size_t span) const {
  const Span& s = spans_[span];
  std::vector<std::pair<double, double>> children;
  for (std::size_t i = span + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int>(span)) {
      children.emplace_back(spans_[i].start, spans_[i].end);
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = s.start;
  for (const auto& [start, end] : children) {
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (s.end - s.start) - covered;
}

bool Tracer::within(std::size_t span, const std::string& name) const {
  for (int i = static_cast<int>(span); i >= 0;
       i = spans_[static_cast<std::size_t>(i)].parent) {
    if (spans_[static_cast<std::size_t>(i)].name == name) return true;
  }
  return false;
}

std::size_t Tracer::root_of(std::size_t span) const {
  while (spans_[span].parent >= 0) {
    span = static_cast<std::size_t>(spans_[span].parent);
  }
  return span;
}

std::map<std::string, ParSummary> Tracer::par_summary(
    std::uint32_t threads) const {
  const std::lock_guard<std::mutex> lock(par_mutex_);
  std::map<std::string, bool> in_passes;
  for (const ParRecord& record : par_) {
    if (record.span >= 0 &&
        spans_[root_of(static_cast<std::size_t>(record.span))].name == "pass") {
      in_passes[record.label] = true;
    }
  }
  struct Unit {
    double busy_s = 0.0;
    double tasks = 0.0;
  };
  std::map<std::string, std::map<std::size_t, Unit>> units;
  std::map<std::string, std::set<int>> enclosing;
  std::map<std::string, double> busy;
  for (const ParRecord& record : par_) {
    if (record.span < 0) continue;
    const std::size_t root = root_of(static_cast<std::size_t>(record.span));
    if (in_passes[record.label] && spans_[root].name != "pass") continue;
    Unit& unit = units[record.label][root];
    unit.busy_s += record.busy_s;
    unit.tasks += static_cast<double>(record.tasks);
    enclosing[record.label].insert(record.span);
    busy[record.label] += record.busy_s;
  }
  std::map<std::string, ParSummary> out;
  for (const auto& [label, per_root] : units) {
    std::vector<double> unit_busy;
    std::vector<double> unit_tasks;
    for (const auto& [root, unit] : per_root) {
      unit_busy.push_back(unit.busy_s);
      unit_tasks.push_back(unit.tasks);
    }
    double wall = 0.0;
    for (const int span : enclosing[label]) {
      const Span& s = spans_[static_cast<std::size_t>(span)];
      wall += s.end - s.start;
    }
    ParSummary& summary = out[label];
    summary.busy_s = median(std::move(unit_busy));
    summary.tasks = median(std::move(unit_tasks));
    summary.units = per_root.size();
    if (wall > 0.0) {
      summary.efficiency =
          busy[label] / (wall * static_cast<double>(threads));
    }
  }
  return out;
}

std::size_t Tracer::par_loops_within(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(par_mutex_);
  std::size_t loops = 0;
  for (const ParRecord& record : par_) {
    if (record.span >= 0 &&
        within(static_cast<std::size_t>(record.span), name)) {
      ++loops;
    }
  }
  return loops;
}

void Tracer::write_json(const std::string& path,
                        const std::map<std::string, std::string>& meta) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  os << "{\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    os << (first ? "" : ",") << json_string(key) << ':' << value;
    first = false;
  }
  os << "},\n\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i
       << ",\"name\":" << json_string(s.name) << ",\"pass\":" << s.pass
       << ",\"parent\":" << s.parent << ",\"start_s\":" << json_number(s.start)
       << ",\"end_s\":" << json_number(s.end)
       << ",\"self_s\":" << json_number(self_seconds(i)) << '}';
  }
  os << "],\n\"par\":[";
  {
    const std::lock_guard<std::mutex> lock(par_mutex_);
    for (std::size_t i = 0; i < par_.size(); ++i) {
      const ParRecord& r = par_[i];
      os << (i ? ",\n" : "\n") << "{\"label\":" << json_string(r.label)
         << ",\"busy_s\":" << json_number(r.busy_s) << ",\"tasks\":" << r.tasks
         << ",\"span\":" << r.span << '}';
    }
  }
  os << "]}\n";
}

}  // namespace perfbench
