// sf_uniform: the sharded store-and-forward engine on HB(3,12) -- 393,216
// nodes under uniform random traffic, fault free. The paper's scalability
// claim and the thread-scaling target: the time is in sim (sharded sweep,
// hb_route), distsim (Exchange) and par (per-cycle dispatch), none in fault
// routing or graph.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/hyper_butterfly.hpp"
#include "distsim/sync_engine.hpp"
#include "obs/sink.hpp"
#include "sim/hb_route.hpp"
#include "sim/sharded.hpp"
#include "sim/traffic.hpp"

namespace hbbench {
namespace {

constexpr unsigned kM = 3, kN = 12;
constexpr std::size_t kProbePairs = 200000;
constexpr unsigned kSerialReruns = 3;

hbnet::SimConfig workload_config(std::uint64_t seed) {
  hbnet::SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 60;
  cfg.drain_cycles = 2000;
  cfg.seed = hbnet::traffic_mix(seed);
  cfg.pattern = hbnet::TrafficPattern::kUniform;
  cfg.routing = hbnet::RoutingMode::kNative;
  return cfg;
}

/// The engine's first (src, dst) draws: run_simulation_sharded keys its
/// StatelessTraffic with seed ^ 0x9e3779b97f4a7c15.
std::vector<std::pair<std::uint32_t, std::uint32_t>> traffic_pairs(
    const hbnet::SimConfig& cfg, std::uint32_t nodes) {
  const hbnet::StatelessTraffic traffic(cfg.pattern, nodes,
                                        cfg.seed ^ 0x9e3779b97f4a7c15ull,
                                        cfg.injection_rate);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(kProbePairs);
  for (std::uint64_t cycle = 0; pairs.size() < kProbePairs; ++cycle) {
    const auto view = traffic.at(cycle);
    for (std::uint32_t src = 0; src < nodes && pairs.size() < kProbePairs;
         ++src) {
      if (view.injects(src)) pairs.emplace_back(src, view.destination(src));
    }
  }
  return pairs;
}

/// A message the size of the engine's 32-byte packet slot, carrying a route
/// state the way a resident packet does.
struct RouteMsg {
  std::uint32_t wc = 0, src = 0, dst = 0, injected_at = 0;
  hbnet::sim::HbRouteState route;
  std::uint32_t pad = 0;
};
static_assert(sizeof(RouteMsg) == 32);

void probe_hb_route(Tracer& tr, const hbnet::HyperButterfly& hb,
                    const std::vector<std::pair<std::uint32_t,
                                                std::uint32_t>>& pairs,
                    Outcome& out) {
  const Scope probe(tr, "probe.sim.hb_route");
  const hbnet::sim::HbImplicitRouter router(hb);
  std::vector<hbnet::sim::HbRouteState> states(pairs.size());
  const double plan_s = timed(tr, true, "sim.hb_route.plan", [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      states[i] = router.plan(hb.node_at(pairs[i].first),
                              hb.node_at(pairs[i].second));
    }
  });
  std::uint64_t hops = 0;
  bool arrived = true;
  const double walk_s = timed(tr, true, "sim.hb_route.next_hop", [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      hbnet::HbNode cur = hb.node_at(pairs[i].first);
      hbnet::sim::HbRouteState st = states[i];
      while (!st.done()) {
        cur = router.next_hop(cur, st).next;
        ++hops;
      }
      arrived = arrived && hb.index_of(cur) == pairs[i].second;
    }
  });
  require(arrived, "hb_route probe: a planned route missed its destination");
  out.add("sim.hb_route.ns_per_plan",
          plan_s * 1e9 / static_cast<double>(pairs.size()), "ns");
  out.add("sim.hb_route.ns_per_hop", walk_s * 1e9 / static_cast<double>(hops),
          "ns");
}

void probe_exchange(Tracer& tr, const hbnet::sync::ShardPlan& plan,
                    const std::vector<std::pair<std::uint32_t,
                                                std::uint32_t>>& pairs,
                    Outcome& out) {
  const Scope probe(tr, "probe.distsim.exchange");
  hbnet::sync::Exchange<RouteMsg> exchange(plan.shards());
  constexpr unsigned kRounds = 10;
  std::uint64_t drained = 0;
  const double dt = timed(tr, true, "distsim.exchange.push_drain", [&] {
    for (unsigned r = 0; r < kRounds; ++r) {
      for (const auto& [src, dst] : pairs) {
        RouteMsg m;
        m.src = src;
        m.dst = dst;
        exchange.push(plan.shard_of(src), plan.shard_of(dst), m);
      }
      for (unsigned s = 0; s < plan.shards(); ++s) {
        exchange.drain(s, [&](RouteMsg& m) { drained += m.dst != m.src; });
      }
    }
  });
  require(drained == kRounds * pairs.size(), "exchange probe lost messages");
  out.add("distsim.exchange.ns_per_msg",
          dt * 1e9 / static_cast<double>(kRounds * pairs.size()), "ns");
  out.add("distsim.shards", plan.shards(), "count");
}

}  // namespace

Outcome run_sf_uniform(Context& ctx) {
  Tracer& tr = *ctx.tracer;
  Outcome out;
  const hbnet::SimConfig cfg = workload_config(ctx.seed);

  std::optional<hbnet::HyperButterfly> hb;
  std::vector<double> setup_s;
  auto setup = [&] {
    const Scope s(tr, "setup");
    setup_s.push_back(setup_part(tr, "core.hyper_butterfly.build", 5, 1000,
                                 [&] { hb.emplace(kM, kN); }));
  };
  setup();
  const auto nodes = static_cast<std::uint32_t>(hb->num_nodes());
  // The engine's own default shard count, passed explicitly so the 1-thread
  // and nproc runs provably share it and the manifest can state it.
  const unsigned shards =
      std::max<unsigned>(ctx.threads, (nodes + 16383) / 16384);
  ctx.manifest["instance"] = "\"HB(3,12)\"";
  ctx.manifest["nodes"] = std::to_string(nodes);
  ctx.manifest["shards"] = std::to_string(shards);
  ctx.manifest["sim_seed"] = std::to_string(cfg.seed);

  auto run = [&](unsigned threads, hbnet::obs::Sink* sink) {
    hbnet::SimStats s =
        hbnet::run_simulation_sharded(*hb, cfg, shards, threads, sink);
    require(s.delivered() == s.injected() && s.dropped() == 0,
            "delivered != injected after the drain");
    return s;
  };

  // Thread-count contract: the serial run is the reference every measured
  // call must reproduce byte for byte.
  hbnet::SimStats ref;
  timed(tr, true, "sim.run_simulation_sharded[threads=1]",
        [&] { ref = run(1, nullptr); });
  const std::string ref_print = stats_fingerprint(ref);
  const auto hops =
      static_cast<double>(std::llround(ref.mean_hops() * ref.delivered()));
  out.attempted = ref.injected();
  out.failed = ref.injected() - ref.delivered();

  std::vector<double> traced_s, untraced_s;
  const std::vector<double> call_s =
      repeat_for(ctx.seconds, ctx.trace ? 4 : 3, [&](unsigned i) {
        const bool traced = ctx.trace && i % 2 == 0;
        setup();
        hbnet::SimStats s;
        const double dt = timed(tr, traced, "sim.run_simulation_sharded",
                                [&] { s = run(ctx.threads, nullptr); });
        require(stats_fingerprint(s) == ref_print,
                "SimStats differ between 1 and " +
                    std::to_string(ctx.threads) + " threads");
        (traced ? traced_s : untraced_s).push_back(dt);
        return dt;
      });

  if (!ctx.trace) {
    add_end_to_end(out, setup_s, call_s,
                   std::vector<double>(call_s.size(), hops));
    return out;
  }

  // Telemetry must stay a write-only observer: same stats with a sink.
  hbnet::obs::Sink sink;
  hbnet::SimStats with_sink;
  const double sink_s = timed(tr, true, "sim.run_simulation_sharded[sink]",
                              [&] { with_sink = run(ctx.threads, &sink); });
  require(stats_fingerprint(with_sink) == ref_print,
          "SimStats differ with an obs::Sink attached");
  const hbnet::obs::Counter* cycles_counter =
      sink.metrics().find_counter("sim.cycles");
  require(cycles_counter != nullptr, "sink has no sim.cycles counter");
  const auto cycles = static_cast<double>(cycles_counter->value());

  const double call = median(traced_s);
  const double base = median(untraced_s);
  out.add("sim.sharded.call_s", call, "s");
  out.add("sim.sharded.cycles", cycles, "count");
  out.add("sim.sharded.packet_hops", hops, "count");
  out.add("sim.sharded.ns_per_packet_hop", call * 1e9 / hops, "ns");
  out.add("sim.sharded.ns_per_node_cycle", call * 1e9 / (nodes * cycles), "ns");
  out.add("sim.latency_p50_cycles",
          histogram_quantile(ref.latency_histogram(), 0.5), "cycles");
  out.add("sim.latency_p99_cycles",
          histogram_quantile(ref.latency_histogram(), 0.99), "cycles");
  double util_max = 0.0, util_sum = 0.0;
  for (const hbnet::obs::LinkStats& l : sink.links()) {
    const double u = l.utilization(sink.run_cycles());
    util_max = std::max(util_max, u);
    util_sum += u;
  }
  // Every directed link, also the ones that carried nothing.
  const double links = static_cast<double>(nodes) * hb->degree();
  out.add("sim.link_util_max", util_max, "ratio");
  out.add("sim.link_util_mean", util_sum / links, "ratio");

  // The 1-thread time for par.speedup comes from warm reruns: the reference
  // call above was the process's first and paid the arenas' first touch.
  std::vector<double> serial_s;
  for (unsigned rep = 0; rep < kSerialReruns; ++rep) {
    hbnet::SimStats s;
    serial_s.push_back(timed(tr, true, "sim.run_simulation_sharded[threads=1]",
                             [&] { s = run(1, nullptr); }));
    require(stats_fingerprint(s) == ref_print,
            "SimStats differ between 1-thread runs");
  }
  const double t1 = median(serial_s);
  const double tn = median(call_s);
  out.add("par.speedup.sf_uniform", t1 / tn, "x");
  out.add("par.efficiency.sf_uniform", t1 / tn / ctx.threads, "ratio");
  out.add("obs.trace_overhead_frac.sf_uniform", call / base - 1.0, "ratio");
  out.add("obs.sink_overhead_frac.sf_uniform", sink_s / base - 1.0, "ratio");
  out.add("core.hyper_butterfly.build_s", median(setup_s), "s");

  const auto pairs = traffic_pairs(cfg, nodes);
  probe_hb_route(tr, *hb, pairs, out);
  probe_exchange(tr, hbnet::sync::ShardPlan(nodes, shards), pairs, out);
  probe_par_dispatch(tr, ctx.threads, out);
  return out;
}

}  // namespace hbbench
