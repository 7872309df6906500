// audit-11664: the paper's §VII hot-spot-degree audit on its largest RLFT,
// PGFT(3; 18,18,36; 1,18,18; 1,1,1), with D-Mod-K tables (~76 MB LFT).
//
// One pass makes three calls over a fixed-stride sample of Shift stages:
// HsdAnalyzer::analyze_sequence under the topology order, the same under a
// seeded random order, and certify_contention_freedom under the topology
// order. All time goes to the route walk and the LFT's cache behaviour; the
// random order reads the LFT in a scattered pattern.
#include <memory>
#include <optional>
#include <sstream>

#include "analysis/hsd.hpp"
#include "bench.hpp"
#include "check/certify.hpp"
#include "check/symbolic.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace ftcf;

constexpr std::size_t kSampleStages = 64;
constexpr int kSetupReps = 7;

struct AuditRig {
  std::unique_ptr<topo::Fabric> fabric;
  std::optional<route::ForwardingTables> tables;
  std::optional<order::NodeOrdering> topology_order;
  std::optional<order::NodeOrdering> random_order;
  cps::Sequence sample;
};

std::unique_ptr<AuditRig> build_rig(const Options& options, Tracer& tracer) {
  auto rig = std::make_unique<AuditRig>();
  const std::uint64_t nodes = options.quick ? 324 : 11664;
  {
    const Scope span(tracer, "topology.build");
    rig->fabric = std::make_unique<topo::Fabric>(topo::paper_cluster(nodes));
  }
  {
    const Scope span(tracer, "routing.dmodk");
    rig->tables.emplace(route::DModKRouter().compute(*rig->fabric));
  }
  {
    const Scope span(tracer, "ordering.build");
    rig->topology_order.emplace(order::NodeOrdering::topology(*rig->fabric));
    rig->random_order.emplace(order::NodeOrdering::random(
        *rig->fabric, util::derive_seed(options.seed, 1)));
  }
  {
    const Scope span(tracer, "cps.generate");
    rig->sample = shift_sample(rig->fabric->num_hosts(), kSampleStages);
  }
  return rig;
}

/// Re-point one leaf-switch entry so two flows of one sampled stage leave
/// the leaf through the same up-port: a single corrupted LFT entry that
/// every check downstream must catch.
std::string corrupt_one_entry(AuditRig& rig) {
  const topo::Fabric& fabric = *rig.fabric;
  const std::uint64_t n = fabric.num_hosts();
  const topo::NodeId leaf = fabric.leaf_switch_of_host(0);
  for (const cps::Stage& stage : rig.sample.stages) {
    const std::uint64_t d1 = stage.pairs[0].dst;
    const std::uint64_t d2 = stage.pairs[1].dst;
    if (fabric.is_ancestor_of_host(leaf, d1) ||
        fabric.is_ancestor_of_host(leaf, d2) || d1 >= n || d2 >= n) {
      continue;
    }
    const std::uint32_t p1 = rig.tables->out_port(leaf, d1);
    const std::uint32_t p2 = rig.tables->out_port(leaf, d2);
    if (p1 == p2) continue;
    rig.tables->set_out_port(leaf, d1, p2);
    return fabric.node_name(leaf) + " dest " + std::to_string(d1) +
           " port " + std::to_string(p1) + " -> " + std::to_string(p2);
  }
  throw std::runtime_error("no LFT entry to corrupt in the sample");
}

std::string certificate_json(const check::Certificate& certificate) {
  std::ostringstream os;
  check::write_certificate_json(os, certificate);
  return os.str();
}

std::string stage_maxima(const std::vector<std::uint32_t>& per_stage) {
  std::string out;
  for (const std::uint32_t v : per_stage) out += std::to_string(v) + ',';
  return out;
}

}  // namespace

void run_audit(const Options& options, Tracer& tracer, Report& report) {
  // Each timed build replaces the rig the passes read; the rig is
  // immutable input, so every pass must still give the same results.
  std::unique_ptr<AuditRig> rig;
  const auto setup = [&] {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = build_rig(options, tracer);
    const double wall = seconds_since(start);
    if (options.corrupt_lft) {
      report.meta("corrupted_entry", json_string(corrupt_one_entry(*rig)));
    }
    return wall;
  };

  std::vector<double> pass_s;
  analysis::SequenceMetrics first_random;
  std::string first_certificate;

  const auto run_pass = [&](int index) {
    const topo::Fabric& fabric = *rig->fabric;
    const analysis::HsdAnalyzer analyzer(fabric, *rig->tables);
    Checks checks;
    double wall = 0.0;
    try {
      analysis::SequenceMetrics topology;
      analysis::SequenceMetrics random;
      check::Certificate certificate;
      {
        const Scope pass(tracer, "pass");
        const Clock::time_point start = Clock::now();
        {
          const Scope span(tracer, "analysis.hsd_topology");
          topology = analyzer.analyze_sequence(rig->sample, *rig->topology_order);
        }
        {
          const Scope span(tracer, "analysis.hsd_random");
          random = analyzer.analyze_sequence(rig->sample, *rig->random_order);
        }
        {
          const Scope span(tracer, "check.certify");
          certificate = check::certify_contention_freedom(
              fabric, *rig->tables, *rig->topology_order, rig->sample);
        }
        wall = seconds_since(start);
      }
      if (index > 0) pass_s.push_back(wall);

      // Theorems 1-2: the topology order loads every link at most once.
      const std::size_t stages = rig->sample.num_stages();
      checks.expect(topology.per_stage_max.size() == stages,
                    "analyzer stage count");
      for (std::size_t s = 0; s < topology.per_stage_max.size(); ++s) {
        checks.expect(topology.per_stage_max[s] == 1,
                      "topology-order HSD != 1 at sampled stage " +
                          std::to_string(s));
      }
      checks.expect(random.avg_max_hsd > 1.0,
                    "random order shows no contention");
      // The certificate's witnesses are the analyzer's per-stage maxima.
      checks.expect(certificate.contention_free,
                    "certificate is not contention-free");
      checks.expect(certificate.stages.size() == stages,
                    "certificate stage count");
      for (std::size_t s = 0;
           s < std::min(stages, certificate.stages.size()) &&
           s < topology.per_stage_max.size();
           ++s) {
        checks.expect(
            certificate.stages[s].max_hsd == topology.per_stage_max[s],
            "certificate witness != analyzer maximum at stage " +
                std::to_string(s));
      }
      // Oracle, outside the timed pass: the symbolic proof's certificate is
      // byte-identical to the enumerative one.
      const std::string json = certificate_json(certificate);
      {
        const Scope span(tracer, "check.symbolic");
        const check::SymbolicProof proof = check::symbolic_certify(
            fabric, *rig->topology_order, rig->sample, true);
        checks.expect(proof.applicable,
                      "symbolic certifier declined: " +
                          proof.inapplicable_reason);
        checks.expect(certificate_json(proof.certificate) == json,
                      "symbolic certificate differs from enumerative");
      }
      if (index == 0) {
        first_random = random;
        first_certificate = json;
        report.model("audit.stages", static_cast<double>(stages));
        report.model("audit.flows_per_call",
                     static_cast<double>(rig->sample.total_pairs()));
        report.model("audit.hsd_topology_avg", topology.avg_max_hsd);
        report.model("audit.certificate_digest", json_string(digest(json)));
        report.model("seed.audit.hsd_random_avg", random.avg_max_hsd);
        report.model("seed.audit.hsd_random_worst",
                     static_cast<double>(random.worst_stage_hsd));
        report.model("seed.audit.hsd_random_digest",
                     json_string(digest(stage_maxima(random.per_stage_max))));
      } else {
        checks.expect(random.per_stage_max == first_random.per_stage_max &&
                          random.avg_max_hsd == first_random.avg_max_hsd,
                      "random-order HSD differs between passes");
        checks.expect(json == first_certificate,
                      "certificate differs between passes");
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
  const analysis::HsdAnalyzer analyzer(fabric, *rig->tables);
  const std::uint64_t flows = rig->sample.total_pairs();
  report_end_to_end(report, 3.0 * static_cast<double>(flows), times, pass_s,
                    "one pass: the three audit calls");
  if (!options.trace) return;
  report_setup_spans(tracer, {"topology.build", "routing.dmodk",
                              "ordering.build", "cps.generate"},
                     report);
  report_lft_size(fabric, report);
  const double hsd_topology = span_median(tracer, "analysis.hsd_topology");
  const double hsd_random = span_median(tracer, "analysis.hsd_random");
  const double certify = span_median(tracer, "check.certify");
  const double per_flow = 1e9 / static_cast<double>(flows);
  report.metric("analysis.hsd_topology_s", hsd_topology, "s");
  report.metric("analysis.hsd_random_s", hsd_random, "s");
  report.metric("analysis.ns_per_flow_topology", hsd_topology * per_flow, "ns");
  report.metric("analysis.ns_per_flow_random", hsd_random * per_flow, "ns");
  report.metric("analysis.flows", static_cast<double>(flows), "count");
  report.metric("check.certify_s", certify, "s");
  report.metric("check.ns_per_flow", certify * per_flow, "ns");
  report.metric("check.symbolic_s", span_median(tracer, "check.symbolic"), "s");
  report_trace_summary(tracer, times, report);

  // Thread scaling of the two parallel layers, outside the passes.
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    par::set_default_threads(threads);
    const std::string suffix = ".t" + std::to_string(threads);
    Clock::time_point t = Clock::now();
    (void)route::DModKRouter().compute(fabric);
    report.metric("routing.dmodk_s" + suffix, seconds_since(t), "s");
    t = Clock::now();
    (void)analyzer.analyze_sequence(rig->sample, *rig->topology_order);
    report.metric("analysis.hsd_topology_s" + suffix, seconds_since(t), "s");
  }
  par::set_default_threads(kThreads);
}

}  // namespace perfbench
