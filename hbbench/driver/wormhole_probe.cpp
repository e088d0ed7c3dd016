// The wormhole layer probe of campaign_faults' traced run: the flit-level
// wormhole engine on the campaign's HB(3,5) with the fault-adaptive VC
// policy and m+3 = 6 static node faults. It runs the flit datapath and the
// escape VC class, which no workload's engine call does; core fault routing
// runs online for the ~2% of packets that meet a fault. Unroutable worms and
// deadlock-stranded packets are allowed losses, reported as counts.
//
// It is a probe rather than a workload of its own: its single-threaded
// engine call moved with the shared host's speed by more than the
// end-to-end bounds between runs of the same code (hbbench/README.md).
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "obs/sink.hpp"
#include "sim/topology.hpp"
#include "sim/wormhole.hpp"

namespace hbbench {
namespace {

constexpr unsigned kM = 3, kN = 5;
constexpr unsigned kFaults = kM + 3;
constexpr unsigned kCalls = 3;

hbnet::WormholeConfig probe_config(std::uint64_t seed) {
  hbnet::WormholeConfig cfg;
  cfg.policy = hbnet::VcPolicy::kFaultAdaptive;
  cfg.vcs = hbnet::vc_classes(cfg.policy);
  cfg.flits_per_packet = 4;
  cfg.injection_rate = 0.05;
  cfg.measure_cycles = 800;
  cfg.seed = hbnet::traffic_mix(seed);
  return cfg;
}

std::string wormhole_fingerprint(const hbnet::WormholeStats& s) {
  return stats_fingerprint(s.packets) + " cycles=" + std::to_string(s.cycles) +
         " misroutes=" + std::to_string(s.misroutes) +
         " escape=" + std::to_string(s.escape_hops) +
         " unroutable=" + std::to_string(s.unroutable) +
         " deadlocked=" + std::to_string(s.deadlocked);
}

}  // namespace

void probe_wormhole(Tracer& tr, Context& ctx, Outcome& out) {
  const Scope probe(tr, "probe.sim.wormhole");
  const hbnet::WormholeConfig cfg = probe_config(ctx.seed);
  const std::uint64_t fault_seed = hbnet::campaign::split_seed(ctx.seed, 0, 1);
  const std::unique_ptr<hbnet::SimTopology> topo =
      hbnet::make_hyper_butterfly_sim(kM, kN);
  hbnet::WormholeFaults faults;
  faults.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v : hbnet::campaign::derived_fault_nodes(
           fault_seed, topo->num_nodes(), kFaults)) {
    faults.nodes[v] = 1;
  }
  ctx.manifest["wormhole_sim_seed"] = std::to_string(cfg.seed);
  ctx.manifest["wormhole_fault_seed"] = std::to_string(fault_seed);

  // The butterfly level (node id mod n) is the dateline ring coordinate.
  auto run = [&](hbnet::obs::Sink* sink) {
    return hbnet::run_wormhole(*topo, cfg, kN, &faults, sink);
  };

  std::optional<hbnet::WormholeStats> first;
  std::string first_print;
  std::vector<double> call_s;
  for (unsigned i = 0; i < kCalls; ++i) {
    hbnet::WormholeStats s;
    call_s.push_back(
        timed(tr, true, "sim.run_wormhole", [&] { s = run(nullptr); }));
    if (!first) {
      first = s;
      first_print = wormhole_fingerprint(s);
    }
    require(wormhole_fingerprint(s) == first_print,
            "run_wormhole is not deterministic across calls");
  }

  hbnet::obs::Sink sink;
  hbnet::WormholeStats with_sink;
  const double sink_s = timed(tr, true, "sim.run_wormhole[sink]",
                              [&] { with_sink = run(&sink); });
  require(wormhole_fingerprint(with_sink) == first_print,
          "WormholeStats differ with an obs::Sink attached");
  const hbnet::obs::Counter* flits =
      sink.metrics().find_counter("wormhole.flits_forwarded");
  require(flits != nullptr && flits->value() > 0,
          "sink has no wormhole.flits_forwarded counter");

  const hbnet::WormholeStats& s = *first;
  const double call = median(call_s);
  const double hops = s.packets.mean_hops() * s.packets.delivered();
  out.add("sim.wormhole.call_s", call, "s");
  out.add("sim.wormhole.cycles", static_cast<double>(s.cycles), "count");
  out.add("sim.wormhole.ns_per_flit_hop",
          call * 1e9 / static_cast<double>(flits->value()), "ns");
  out.add("sim.wormhole.misroutes", static_cast<double>(s.misroutes), "count");
  out.add("sim.wormhole.escape_hop_share",
          static_cast<double>(s.escape_hops) / hops, "ratio");
  out.add("sim.wormhole.unroutable", static_cast<double>(s.unroutable),
          "count");
  out.add("sim.wormhole.deadlocks", s.deadlocked ? 1.0 : 0.0, "count");
  out.add("sim.wormhole.lost_packets",
          static_cast<double>(s.packets.injected() - s.packets.delivered()),
          "count");
  out.add("obs.sink_overhead_frac.wormhole", sink_s / call - 1.0, "ratio");
}

}  // namespace hbbench
