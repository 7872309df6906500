// churn-648: the churn fabric PGFT(3; 6,6,18; 1,6,6; 1,1,1) with a full
// Shift CPS under the topology order, replaying the MTBF timeline
// mtbf:12:800:300:12000:<seed> (seed 11 gives 271 events).
//
// Each event calls IncrementalRepair::{fail,repair}_{cable,switch} and then
// IncrementalCertifier::update, and that pair is timed as the event's
// reaction latency. This is the write side of the LFT; only a few flows are
// re-walked per event. After each replay (untimed) every component still
// down is repaired, which returns the repair and certifier objects to the
// pristine tables (checked), so the next pass can replay on the same
// objects, as a long-lived fabric manager would, until a timed set-up build
// replaces them.
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "check/certify.hpp"
#include "check/depgraph.hpp"
#include "check/recertify.hpp"
#include "churn/timeline.hpp"
#include "cps/generators.hpp"
#include "fault/fault_spec.hpp"
#include "ordering/ordering.hpp"
#include "routing/degraded.hpp"
#include "routing/incremental.hpp"
#include "topology/presets.hpp"

namespace perfbench {

namespace {

using namespace ftcf;

constexpr int kSetupReps = 15;

struct ChurnRig {
  std::unique_ptr<topo::Fabric> fabric;
  std::optional<order::NodeOrdering> order;
  cps::Sequence sequence;
  churn::Timeline timeline;
  std::unique_ptr<fault::FaultState> baseline;
  std::unique_ptr<route::IncrementalRepair> repair;
  std::unique_ptr<check::IncrementalCertifier> certifier;
};

std::unique_ptr<ChurnRig> build_rig(const Options& options, Tracer& tracer) {
  auto rig = std::make_unique<ChurnRig>();
  {
    const Scope span(tracer, "topology.build");
    rig->fabric = std::make_unique<topo::Fabric>(
        options.quick ? topo::paper_cluster(128)
                      : topo::parse_pgft("PGFT(3; 6,6,18; 1,6,6; 1,1,1)"));
  }
  {
    const Scope span(tracer, "ordering.build");
    rig->order.emplace(order::NodeOrdering::topology(*rig->fabric));
  }
  {
    const Scope span(tracer, "cps.generate");
    rig->sequence = cps::shift(rig->fabric->num_hosts());
  }
  {
    const Scope span(tracer, "churn.timeline");
    rig->timeline = churn::resolve_timeline(
        *rig->fabric, fault::parse_faults("mtbf:12:800:300:12000:" +
                                          std::to_string(options.seed)));
    rig->baseline = std::make_unique<fault::FaultState>(
        *rig->fabric, rig->timeline.static_spec);
  }
  {
    const Scope span(tracer, "routing.repair_build");
    rig->repair = std::make_unique<route::IncrementalRepair>(*rig->baseline);
  }
  {
    const Scope span(tracer, "check.recertify_build");
    rig->certifier = std::make_unique<check::IncrementalCertifier>(
        *rig->fabric, rig->repair->tables(), *rig->order, rig->sequence);
  }
  return rig;
}

/// Components a replay left down, keyed like the events that failed them.
struct DownSet {
  std::set<topo::PortId> cables;  ///< canonical: the lower PortId
  std::set<topo::NodeId> switches;
};

route::RepairDelta apply(const topo::Fabric& fabric,
                         route::IncrementalRepair& repair,
                         const churn::ChurnEvent& event, DownSet& down) {
  const topo::PortId cable =
      event.cable == topo::kInvalidPort
          ? event.cable
          : std::min(event.cable, fabric.port(event.cable).peer);
  switch (event.kind) {
    case churn::EventKind::kFailCable:
      down.cables.insert(cable);
      return repair.fail_cable(event.cable);
    case churn::EventKind::kRepairCable:
      down.cables.erase(cable);
      return repair.repair_cable(event.cable);
    case churn::EventKind::kFailSwitch:
      down.switches.insert(event.node);
      return repair.fail_switch(event.node);
    case churn::EventKind::kRepairSwitch:
      down.switches.erase(event.node);
      return repair.repair_switch(event.node);
  }
  throw std::logic_error("unknown churn event kind");
}

/// Repair everything still down, keeping the certifier in step.
void restore(ChurnRig& rig, DownSet& down) {
  for (const topo::NodeId sw : down.switches) {
    (void)rig.certifier->update(rig.repair->repair_switch(sw));
  }
  for (const topo::PortId cable : down.cables) {
    (void)rig.certifier->update(rig.repair->repair_cable(cable));
  }
  down = DownSet{};
}

std::string certificate_json(const check::Certificate& certificate) {
  std::ostringstream os;
  check::write_certificate_json(os, certificate);
  return os.str();
}

/// Per pass id, the summed duration of the spans called `name`; median
/// over the passes that have any.
double median_pass_total(const Tracer& tracer, const std::string& name) {
  std::map<std::uint32_t, double> totals;
  for (const Span& span : tracer.spans()) {
    if (span.name == name && span.pass > 0) {
      totals[span.pass] += span.end - span.start;
    }
  }
  std::vector<double> values;
  for (const auto& [pass, total] : totals) values.push_back(total);
  return median(std::move(values));
}

}  // namespace

void run_churn(const Options& options, Tracer& tracer, Report& report) {
  // Each timed build replaces the rig (and so the repair and certifier
  // state) that the following passes replay on; every pass must still do
  // the same work and end on the same certificate.
  std::unique_ptr<ChurnRig> rig;
  std::optional<route::ForwardingTables> pristine;
  std::vector<double> event_s;
  const auto setup = [&] {
    rig.reset();
    pristine.reset();
    const Clock::time_point start = Clock::now();
    rig = build_rig(options, tracer);
    return seconds_since(start);
  };


  std::uint64_t first_entries = 0;
  std::uint64_t first_rewalked = 0;
  std::string first_certificate;

  const auto run_pass = [&](int index) {
    const topo::Fabric& fabric = *rig->fabric;
    const std::vector<churn::ChurnEvent>& events = rig->timeline.events;
    if (!pristine) pristine.emplace(rig->repair->tables());
    Checks checks;
    double wall = 0.0;
    try {
      DownSet down;
      std::uint64_t entries = 0;
      std::uint64_t rewalked = 0;
      {
        const Scope pass(tracer, "pass");
        for (const churn::ChurnEvent& event : events) {
          const Clock::time_point start = Clock::now();
          route::RepairDelta delta;
          {
            const Scope span(tracer, "routing.repair");
            delta = apply(fabric, *rig->repair, event, down);
          }
          check::CertificateDelta cert_delta;
          {
            const Scope span(tracer, "check.recertify");
            cert_delta = rig->certifier->update(delta);
          }
          const double dt = seconds_since(start);
          wall += dt;
          if (index > 0) event_s.push_back(dt);
          entries += delta.entries_changed;
          rewalked += cert_delta.flows_rewalked;
        }
      }
      // Oracles on the final tables, outside the timed pass.
      std::optional<route::ForwardingTables> full;
      {
        const Scope span(tracer, "routing.degraded_oracle");
        full.emplace(
            route::compute_degraded_dmodk(fabric, rig->repair->health()));
      }
      checks.expect(*full == rig->repair->tables(),
                    "incremental tables differ from compute_degraded_dmodk");
      const std::string json =
          certificate_json(rig->certifier->certificate());
      {
        const Scope span(tracer, "check.full_certify");
        const check::Certificate full_certificate =
            check::certify_contention_freedom(fabric, *full, *rig->order,
                                              rig->sequence);
        checks.expect(certificate_json(full_certificate) == json,
                      "IncrementalCertifier::certificate() differs from a "
                      "full certify");
      }
      {
        const Scope span(tracer, "routing.restore");
        restore(*rig, down);
      }
      checks.expect(rig->repair->tables() == *pristine,
                    "repairing every component did not restore the tables");
      if (index == 0) {
        first_entries = entries;
        first_rewalked = rewalked;
        first_certificate = json;
        report.model("seed.churn.events", static_cast<double>(events.size()));
        report.model("seed.churn.entries_changed",
                     static_cast<double>(entries));
        report.model("seed.churn.flows_rewalked",
                     static_cast<double>(rewalked));
        report.model("seed.churn.final_certificate_digest",
                     json_string(digest(json)));
      } else {
        checks.expect(entries == first_entries && rewalked == first_rewalked,
                      "repair / re-certify work differs between passes");
        checks.expect(json == first_certificate,
                      "final certificate differs between passes");
      }
    } catch (const std::exception& e) {
      checks.expect(false, std::string("pass threw: ") + e.what());
    }
    report.operation(checks.failures());
    return wall;
  };
  const PassTimes times = run_passes(options, tracer, 3, kSetupReps, setup,
                                     run_pass);

  const topo::Fabric& fabric = *rig->fabric;
  const double num_events = static_cast<double>(rig->timeline.events.size());
  report_end_to_end(report, num_events, times, event_s,
                    "one churn event: repair + re-certify");
  if (!options.trace) return;
  report_setup_spans(tracer, {"topology.build", "ordering.build",
                              "cps.generate", "churn.timeline",
                              "routing.repair_build", "check.recertify_build"},
                     report);
  report.metric("churn.events", num_events, "count");
  report.metric("routing.repair_s", median_pass_total(tracer, "routing.repair"),
                "s");
  report.metric("routing.repair_ms_p50",
                1e3 * span_median(tracer, "routing.repair"), "ms");
  report.metric("routing.entries_changed", static_cast<double>(first_entries),
                "count");
  report.metric("check.recertify_s",
                median_pass_total(tracer, "check.recertify"), "s");
  report.metric("check.recertify_ms_p50",
                1e3 * span_median(tracer, "check.recertify"), "ms");
  report.metric("check.flows_rewalked", static_cast<double>(first_rewalked),
                "count");
  report.metric("check.rewalk_ratio",
                static_cast<double>(first_rewalked) /
                    (num_events *
                     static_cast<double>(rig->sequence.total_pairs())),
                "ratio");
  report.metric("routing.degraded_oracle_s",
                span_median(tracer, "routing.degraded_oracle"), "s");
  report.metric("check.full_certify_s",
                span_median(tracer, "check.full_certify"), "s");
  report.metric("par.forkjoins_per_event",
                static_cast<double>(tracer.par_loops_within("pass")) /
                    (num_events * static_cast<double>(times.traced.size())),
                "ratio");

  // The campaign's CDG deadlock re-proof (par label churn.cdg) on the live
  // tables, restored after the last replay, outside the passes.
  tracer.set_enabled(true);
  tracer.set_pass(0);
  {
    const Scope span(tracer, "churn.cdg");
    const check::ChannelIndex channels = check::switch_channels(fabric);
    const std::vector<std::uint64_t> deps = check::build_dependencies(
        fabric, rig->repair->tables(), channels, {.label = "churn.cdg"});
    const bool acyclic =
        check::find_cyclic_sccs(check::build_graph(channels.size(), deps))
            .cyclic_sccs == 0;
    report.meta("final_cdg_acyclic", acyclic ? "true" : "false");
  }
  tracer.set_enabled(false);
  report.metric("churn.cdg_s", span_median(tracer, "churn.cdg"), "s");
  report_trace_summary(tracer, times, report);
}

}  // namespace perfbench
