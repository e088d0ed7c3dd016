// kappa_exact: the exact vertex-connectivity sweep over the implicit HB(6,5)
// adjacency (sparse certificates, cube-orbit target reduction), certifying
// kappa = m+4 = 10 -- the paper's central optimal-fault-tolerance claim. All
// of its time is in graph (Dinic, certificates) and topology/hb_implicit,
// none in sim.
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/adjacency.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/sparsify.hpp"
#include "obs/metrics.hpp"
#include "sim/traffic.hpp"
#include "topology/hb_implicit.hpp"

namespace hbbench {
namespace {

constexpr unsigned kM = 6, kN = 5;
constexpr std::uint32_t kKappa = kM + 4;
constexpr unsigned kProbePairs = 40;

hbnet::SweepOptions sweep_options(unsigned threads,
                                  hbnet::obs::MetricsRegistry* metrics) {
  hbnet::SweepOptions opts;
  opts.threads = threads;
  opts.vertex_transitive = true;  // Cayley graph: one source is exact
  opts.sparsify = true;
  opts.orbit_rep = [](hbnet::NodeId v) {
    return hbnet::hb_cube_orbit_representative(kM, kN, v);
  };
  opts.metrics = metrics;
  return opts;
}

/// A gauge's value from the registry's JSON dump (the registry has no
/// gauge lookup).
double gauge_value(const hbnet::obs::MetricsRegistry& reg,
                   const std::string& name) {
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key, json.find("\"gauges\""));
  require(at != std::string::npos, "sweep registry lacks " + name);
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

}  // namespace

Outcome run_kappa_exact(Context& ctx) {
  Tracer& tr = *ctx.tracer;
  Outcome out;

  std::optional<hbnet::HbImplicitAdjacency> adj;
  std::optional<hbnet::ConnectivitySweep> sw;
  std::vector<double> setup_s;
  // Set-up: the implicit adjacency and the sweep the next call runs (its
  // constructor orders the sources); `reg` receives the sweep's counters.
  auto setup = [&](unsigned threads, hbnet::obs::MetricsRegistry* reg) {
    const Scope s(tr, "setup");
    sw.reset();  // it refers to the adjacency rebuilt next
    const double adj_s =
        setup_part(tr, "topology.hb_implicit.build", 5, 1000,
                   [&] { adj.emplace(kM, kN); });
    setup_s.push_back(
        adj_s + setup_part(tr, "graph.sweep.construct", 5, 1, [&] {
          sw.emplace(*adj, sweep_options(threads, reg));
        }));
  };
  // One sweep of the set-up instance. Contract: the certificate completes
  // with kappa = m+4.
  auto sweep = [&](bool traced, const std::string& name,
                   hbnet::ExactConnectivityResult& r) {
    const double dt = timed(tr, traced, name, [&] { r = sw->run(); });
    require(r.complete && r.kappa == kKappa,
            "sweep did not certify kappa = m+4 = " + std::to_string(kKappa));
    return dt;
  };

  std::optional<hbnet::ExactConnectivityResult> first;
  std::vector<double> traced_s, untraced_s, solves;
  hbnet::obs::MetricsRegistry reg;  // the first call's sweep counters
  const std::vector<double> call_s =
      repeat_for(ctx.seconds, ctx.trace ? 4 : 3, [&](unsigned i) {
        const bool traced = ctx.trace && i % 2 == 0;
        setup(ctx.threads, i == 0 ? &reg : nullptr);
        hbnet::ExactConnectivityResult r;
        const double dt = sweep(traced, "graph.connectivity_sweep.run", r);
        if (!first) first = r;
        require(r.solves == first->solves && r.pruned == first->pruned,
                "sweep solve/prune counts differ between calls");
        (traced ? traced_s : untraced_s).push_back(dt);
        solves.push_back(static_cast<double>(r.solves));
        return dt;
      });
  // The operation is the certificate; a failed one broke the contract above.
  out.attempted = 1;

  ctx.manifest["instance"] = "\"HB(6,5)\"";
  ctx.manifest["nodes"] = std::to_string(adj->num_nodes());
  ctx.manifest["sweep_threads"] = std::to_string(ctx.threads);
  if (!ctx.trace) {
    add_end_to_end(out, setup_s, call_s, solves);
    return out;
  }

  setup(1, nullptr);
  hbnet::ExactConnectivityResult serial;
  const double t1 =
      sweep(true, "graph.connectivity_sweep.run[threads=1]", serial);
  require(serial.solves == first->solves && serial.pruned == first->pruned,
          "sweep solve/prune counts differ between 1 and " +
              std::to_string(ctx.threads) + " threads");

  const double call = median(traced_s);
  const auto solved = static_cast<double>(first->solves);
  const auto pruned = static_cast<double>(first->pruned);
  const hbnet::obs::Counter* blocks = reg.find_counter("connectivity.blocks");
  require(blocks != nullptr, "sweep registry lacks connectivity.blocks");
  out.add("graph.sweep.call_s", call, "s");
  out.add("graph.sweep.solves", solved, "count");
  out.add("graph.sweep.pruned", pruned, "count");
  out.add("graph.sweep.blocks", static_cast<double>(blocks->value()), "count");
  out.add("graph.sweep.ms_per_solve", call * 1e3 / solved, "ms");
  out.add("graph.sweep.prune_ratio", pruned / (solved + pruned), "ratio");
  out.add("graph.sparsify.cert_edges",
          gauge_value(reg, "connectivity.cert_edges"), "count");
  out.add("graph.sparsify.arena_arcs_peak",
          gauge_value(reg, "connectivity.arena_arcs_peak"), "count");
  const double tn = median(call_s);
  out.add("par.speedup.kappa_exact", t1 / tn, "x");
  out.add("par.efficiency.kappa_exact", t1 / tn / ctx.threads, "ratio");
  out.add("obs.trace_overhead_frac.kappa_exact",
          call / median(untraced_s) - 1.0, "ratio");

  // graph probes: the certificate the sweep solves on, and single max-flow
  // solves from the scanned source to seeded targets.
  std::optional<hbnet::SparseCertificate> cert;
  std::vector<double> build_s;
  {
    const Scope probe(tr, "probe.graph.sparsify");
    for (unsigned rep = 0; rep < 3; ++rep) {
      build_s.push_back(timed(tr, true, "graph.sparse_certificate", [&] {
        cert = hbnet::sparse_certificate(*adj, kKappa);
      }));
    }
  }
  out.add("graph.sparsify.build_ms", median(build_s) * 1e3, "ms");
  {
    const Scope probe(tr, "probe.graph.maxflow");
    bool exact = true;
    const hbnet::NodeId nodes = adj->num_nodes();
    const double dt = timed(tr, true, "graph.max_disjoint_paths", [&] {
      for (unsigned i = 0; i < kProbePairs; ++i) {
        const auto t = static_cast<hbnet::NodeId>(
            1 + hbnet::traffic_mix(ctx.seed + i) % (nodes - 1));
        exact = hbnet::max_disjoint_paths(cert->graph, 0, t) == kKappa && exact;
      }
    });
    require(exact, "a certificate pair has fewer than m+4 disjoint paths");
    out.add("graph.maxflow.ms_per_pair", dt * 1e3 / kProbePairs, "ms");
  }
  {
    const Scope probe(tr, "probe.topology.hb_implicit");
    hbnet::NeighborScratch scratch(*adj);
    std::uint64_t sum = 0, count = 0, orbit_targets = 0;
    const double dt = timed(tr, true, "topology.hb_implicit.neighbors", [&] {
      for (hbnet::NodeId v = 0; v < adj->num_nodes(); ++v) {
        for (hbnet::NodeId w : adj->neighbors(v, scratch.data())) {
          sum += w;
          ++count;
        }
      }
    });
    require(count == 2 * adj->num_edges() && sum > 0,
            "implicit adjacency enumerated the wrong edge count");
    timed(tr, true, "topology.hb_cube_orbit_representative", [&] {
      for (hbnet::NodeId v = 0; v < adj->num_nodes(); ++v) {
        orbit_targets += hbnet::hb_cube_orbit_representative(kM, kN, v) == v;
      }
    });
    out.add("topology.hb_implicit.ns_per_neighbor",
            dt * 1e9 / static_cast<double>(count), "ns");
    out.add("topology.orbit_targets", static_cast<double>(orbit_targets),
            "count");
  }
  probe_par_dispatch(tr, ctx.threads, out);
  return out;
}

}  // namespace hbbench
