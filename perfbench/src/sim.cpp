// sim-1944: the paper's Fig. 2 packet simulation on its 1944-node
// production cluster, PGFT(3; 18,18,6; 1,18,18; 1,1,1).
//
// One pass runs the serial PacketSim, synchronized, with 16 KiB messages
// over a fixed sample of Shift stages: once under the topology order (short
// queues, contention-free) and once under a seeded random order (contended,
// full queues). Nearly all time is in the packet engine.
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "sim/pdes.hpp"
#include "sim/traffic.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ftcf;

constexpr std::size_t kSampleStages = 4;
constexpr std::uint64_t kMessageBytes = 16 * 1024;
constexpr int kSetupReps = 15;

struct SimRig {
  std::unique_ptr<topo::Fabric> fabric;
  std::optional<route::ForwardingTables> tables;
  std::optional<order::NodeOrdering> topology_order;
  std::optional<order::NodeOrdering> random_order;
  cps::Sequence sample;
  std::vector<sim::StageTraffic> topology_traffic;
  std::vector<sim::StageTraffic> random_traffic;
};

std::unique_ptr<SimRig> build_rig(const Options& options, Tracer& tracer) {
  auto rig = std::make_unique<SimRig>();
  const std::uint64_t nodes = options.quick ? 128 : 1944;
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
        *rig->fabric, util::derive_seed(options.seed, 2)));
  }
  {
    const Scope span(tracer, "cps.generate");
    rig->sample = shift_sample(rig->fabric->num_hosts(), kSampleStages);
  }
  {
    const Scope span(tracer, "sim.traffic_build");
    const std::uint64_t n = rig->fabric->num_hosts();
    rig->topology_traffic = sim::traffic_from_cps(
        rig->sample, *rig->topology_order, n, kMessageBytes);
    rig->random_traffic = sim::traffic_from_cps(
        rig->sample, *rig->random_order, n, kMessageBytes);
  }
  return rig;
}

bool same_result(const sim::RunResult& a, const sim::RunResult& b) {
  const auto& la = a.message_latency_us;
  const auto& lb = b.message_latency_us;
  return a.makespan == b.makespan && a.bytes_delivered == b.bytes_delivered &&
         a.messages_delivered == b.messages_delivered &&
         a.packets_delivered == b.packets_delivered &&
         a.out_of_order_packets == b.out_of_order_packets &&
         a.events == b.events && a.active_hosts == b.active_hosts &&
         a.packets_dropped == b.packets_dropped &&
         a.packets_retransmitted == b.packets_retransmitted &&
         a.duplicate_packets == b.duplicate_packets &&
         a.messages_failed == b.messages_failed &&
         a.bytes_failed == b.bytes_failed &&
         a.link_down_events == b.link_down_events &&
         a.effective_bw_per_host == b.effective_bw_per_host &&
         a.normalized_bw == b.normalized_bw && la.count() == lb.count() &&
         la.sum() == lb.sum() && la.min() == lb.min() && la.max() == lb.max() &&
         a.link_busy_ns == b.link_busy_ns &&
         a.max_queue_depth == b.max_queue_depth;
}

/// Every sent message is delivered, intact, with nothing dropped.
void check_delivery(const std::vector<sim::StageTraffic>& traffic,
                    const sim::RunResult& result, const std::string& order,
                    Checks& checks) {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (const sim::StageTraffic& stage : traffic) {
    for (const auto& host : stage.sends) {
      messages += host.size();
      for (const sim::Message& m : host) bytes += m.bytes;
    }
  }
  checks.expect(result.messages_delivered == messages,
                order + ": delivered " +
                    std::to_string(result.messages_delivered) + " of " +
                    std::to_string(messages) + " messages");
  checks.expect(result.bytes_delivered == bytes, order + ": bytes delivered");
  checks.expect(result.messages_failed == 0 && result.packets_dropped == 0,
                order + ": messages failed or packets dropped");
}

void pin_result(Report& report, const std::string& key,
                const sim::RunResult& r) {
  report.model(key + ".makespan_ns", static_cast<double>(r.makespan));
  report.model(key + ".events", static_cast<double>(r.events));
  report.model(key + ".packets", static_cast<double>(r.packets_delivered));
  report.model(key + ".normalized_bw", r.normalized_bw);
}

}  // namespace

void run_sim(const Options& options, Tracer& tracer, Report& report) {
  // Each timed build replaces the rig the passes read; the rig is
  // immutable input, so every pass must still give the same results.
  std::unique_ptr<SimRig> rig;
  const auto setup = [&] {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = build_rig(options, tracer);
    return seconds_since(start);
  };

  std::vector<double> pass_s;
  sim::RunResult first_topology;
  sim::RunResult first_random;
  std::uint64_t packets = 0;

  const auto run_pass = [&](int index) {
    const topo::Fabric& fabric = *rig->fabric;
    Checks checks;
    double wall = 0.0;
    try {
      sim::RunResult topology;
      sim::RunResult random;
      {
        const Scope pass(tracer, "pass");
        const Clock::time_point start = Clock::now();
        {
          const Scope span(tracer, "sim.run_topology");
          sim::PacketSim engine(fabric, *rig->tables);
          topology = engine.run(rig->topology_traffic,
                                sim::Progression::kSynchronized);
        }
        {
          const Scope span(tracer, "sim.run_random");
          sim::PacketSim engine(fabric, *rig->tables);
          random = engine.run(rig->random_traffic,
                              sim::Progression::kSynchronized);
        }
        wall = seconds_since(start);
      }
      if (index > 0) pass_s.push_back(wall);
      check_delivery(rig->topology_traffic, topology, "topology", checks);
      check_delivery(rig->random_traffic, random, "random", checks);
      checks.expect(topology.normalized_bw > random.normalized_bw,
                    "random order is not slower than the topology order");
      if (index == 0) {
        first_topology = topology;
        first_random = random;
        packets = topology.packets_delivered + random.packets_delivered;
        report.model("sim.stages", static_cast<double>(rig->sample.num_stages()));
        pin_result(report, "sim.topology", topology);
        pin_result(report, "seed.sim.random", random);
      } else {
        checks.expect(same_result(topology, first_topology),
                      "topology-order RunResult differs between passes");
        checks.expect(same_result(random, first_random),
                      "random-order RunResult differs between passes");
      }
    } catch (const std::exception& e) {
      checks.expect(false, std::string("pass threw: ") + e.what());
    }
    report.operation(checks.failures());
    return wall;
  };
  const PassTimes times = run_passes(options, tracer, 3, kSetupReps, setup,
                                     run_pass);

  report_end_to_end(report, static_cast<double>(packets), times, pass_s,
                    "one pass: both PacketSim::run calls");
  if (!options.trace) return;
  report_setup_spans(tracer, {"topology.build", "routing.dmodk",
                              "ordering.build", "cps.generate",
                              "sim.traffic_build"},
                     report);
  const topo::Fabric& fabric = *rig->fabric;
  report_lft_size(fabric, report);
  const double run_topology = span_median(tracer, "sim.run_topology");
  const double run_random = span_median(tracer, "sim.run_random");
  const double events =
      static_cast<double>(first_topology.events + first_random.events);
  report.metric("sim.run_topology_s", run_topology, "s");
  report.metric("sim.run_random_s", run_random, "s");
  report.metric("sim.ns_per_event", 1e9 * (run_topology + run_random) / events,
                "ns");
  report.metric("sim.events_topology",
                static_cast<double>(first_topology.events), "count");
  report.metric("sim.events_random", static_cast<double>(first_random.events),
                "count");
  report.metric("sim.packets", static_cast<double>(packets), "count");
  report.metric("sim.events_per_packet",
                events / static_cast<double>(packets), "ratio");
  report_trace_summary(tracer, times, report);

  // Partitioned engine on the topology-order traffic, outside the passes;
  // its RunResult must equal the serial engine's.
  Checks checks;
  const Clock::time_point t = Clock::now();
  sim::ParallelPacketSim pdes(fabric, *rig->tables);
  pdes.set_partitions(2);
  const sim::RunResult result =
      pdes.run(rig->topology_traffic, sim::Progression::kSynchronized);
  report.metric("sim.pdes_p2_s", seconds_since(t), "s");
  checks.expect(same_result(result, first_topology),
                "PDES (2 partitions) RunResult differs from serial");
  report.operation(checks.failures());
}

}  // namespace perfbench
