// Sharded synchronous packet engine: covering-walk plan optimality, the
// implicit router's hop-for-hop equivalence with the materialized
// route_generators(), conservation laws, Valiant mode, and the determinism
// contract -- stats and exported artifacts are byte-identical for every
// --threads x --shards combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "graph/bfs.hpp"
#include "obs/sink.hpp"
#include "sim/hb_route.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "topology/butterfly.hpp"

namespace hbnet {
namespace {

TEST(CoveringWalkPlan, MatchesOptimalLengthExhaustively) {
  // Both planners see only residues relative to the start, so the problems
  // at start 0 are all of them, and the covering walk from level 0 to level
  // l crossing the edges in word w is the B_n distance (0,0) -> (w,l): one
  // BFS per n is an independent oracle for every (end, required).
  for (unsigned n = 3; n <= 8; ++n) {
    const Butterfly b(n);
    const BfsResult r = bfs(b.to_graph(), b.index_of({0, 0}));
    for (NodeId id = 0; id < b.num_nodes(); ++id) {
      const BflyNode v = b.node_at(id);
      const CoveringWalkPlan plan = plan_covering_walk(n, 0, v.level, v.word);
      ASSERT_EQ(plan.length(), r.dist[id])
          << "n=" << n << " end=" << v.level << " req=" << v.word;
    }
  }
}

TEST(CoveringWalkPlan, ReplayCoversAndTerminates) {
  // Walk the three monotone runs on the level cycle and verify the walk is
  // valid: correct step count, ends at `end`, crosses every required edge
  // (an upward step crosses edge `level`, a downward step crosses
  // (level - 1) mod n) -- and, for the visiting planner, visits every
  // required position.
  for (const unsigned n : {3u, 5u, 6u, 8u}) {
    for (unsigned start = 0; start < n; ++start) {
      for (unsigned end = 0; end < n; ++end) {
        for (std::uint64_t req = 0; req < (std::uint64_t{1} << n); ++req) {
          for (const bool visiting : {false, true}) {
            const CoveringWalkPlan plan =
                visiting ? plan_visiting_walk(n, start, end, req)
                         : plan_covering_walk(n, start, end, req);
            unsigned level = start;
            std::uint64_t crossed = 0;
            std::uint64_t visited = std::uint64_t{1} << start;
            unsigned steps = 0;
            for (unsigned i = 0; i < 3; ++i) {
              for (unsigned k = 0; k < plan.run(i); ++k) {
                if (plan.dir(i) > 0) {
                  crossed |= std::uint64_t{1} << level;
                  level = level + 1 == n ? 0 : level + 1;
                } else {
                  level = level == 0 ? n - 1 : level - 1;
                  crossed |= std::uint64_t{1} << level;
                }
                visited |= std::uint64_t{1} << level;
                ++steps;
              }
            }
            ASSERT_EQ(steps, plan.length());
            ASSERT_EQ(level, end) << "n=" << n << " start=" << start
                                  << " req=" << req;
            ASSERT_EQ((visiting ? visited : crossed) & req, req)
                << "unserved, n=" << n << " start=" << start
                << " end=" << end << " req=" << req
                << " visiting=" << visiting;
          }
        }
      }
    }
  }
}

// Generator index in HyperButterfly::generators() order (h_0..h_{m-1}, g,
// f, g^-1, f^-1) -- the encoding HbHop::gen uses.
unsigned gen_index(const HyperButterfly& hb, const HbGen& g) {
  return g.is_cube ? g.cube_bit
                   : hb.cube_dimension() + static_cast<unsigned>(g.bfly_gen);
}

TEST(HbImplicitRouter, ReplaysRouteGeneratorsExactly) {
  for (const auto& [m, n] : {std::pair{2u, 3u}, std::pair{1u, 4u}}) {
    const HyperButterfly hb(m, n);
    const sim::HbImplicitRouter router(hb);
    const std::vector<HbGen> gens = hb.generators();
    for (HbIndex si = 0; si < hb.num_nodes(); ++si) {
      for (HbIndex di = 0; di < hb.num_nodes(); ++di) {
        const HbNode src = hb.node_at(si);
        const HbNode dst = hb.node_at(di);
        const std::vector<HbGen> want = hb.route_generators(src, dst);

        sim::HbRouteState st = router.plan(src, dst);
        ASSERT_EQ(st.hops_remaining(), want.size());
        HbNode cur = src;
        std::size_t hop_count = 0;
        while (!st.done()) {
          const sim::HbHop hop = router.next_hop(cur, st);
          ASSERT_LT(hop_count, want.size());
          ASSERT_EQ(unsigned{hop.gen}, gen_index(hb, want[hop_count]))
              << "hop " << hop_count << " of " << si << "->" << di;
          ASSERT_EQ(hop.next, hb.apply(cur, gens[hop.gen]));
          cur = hop.next;
          ++hop_count;
        }
        ASSERT_EQ(cur, dst);
        ASSERT_EQ(hop_count, want.size());
      }
    }
  }
}

SimConfig sharded_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 4000;
  return cfg;
}

struct ShardedRun {
  SimStats stats;
  std::string metrics_json;
  std::string links_csv;
};

ShardedRun run_sharded(const HyperButterfly& hb, const SimConfig& cfg,
                       unsigned shards, unsigned threads) {
  obs::Sink sink;
  ShardedRun r;
  r.stats = run_simulation_sharded(hb, cfg, shards, threads, &sink);
  std::ostringstream metrics, links;
  sink.write_metrics_json(metrics);
  sink.write_links_csv(links);
  r.metrics_json = metrics.str();
  r.links_csv = links.str();
  return r;
}

TEST(ShardedSim, ConservationNoFaults) {
  const HyperButterfly hb(2, 3);
  const SimStats stats = run_simulation_sharded(hb, sharded_config());
  EXPECT_GT(stats.injected(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  // With a long drain, every measured packet is delivered.
  EXPECT_EQ(stats.delivered(), stats.injected());
}

TEST(ShardedSim, ResultsInvariantAcrossThreadsAndShards) {
  const HyperButterfly hb(2, 3);
  const SimConfig cfg = sharded_config();
  const ShardedRun base = run_sharded(hb, cfg, 1, 1);
  ASSERT_GT(base.stats.delivered(), 0u);
  for (const auto& [shards, threads] :
       {std::pair{3u, 2u}, std::pair{4u, 8u}, std::pair{0u, 0u}}) {
    const ShardedRun run = run_sharded(hb, cfg, shards, threads);
    EXPECT_EQ(run.stats.injected(), base.stats.injected());
    EXPECT_EQ(run.stats.delivered(), base.stats.delivered());
    EXPECT_EQ(run.stats.mean_latency(), base.stats.mean_latency());
    EXPECT_EQ(run.stats.mean_hops(), base.stats.mean_hops());
    EXPECT_EQ(run.metrics_json, base.metrics_json)
        << "shards=" << shards << " threads=" << threads;
    EXPECT_EQ(run.links_csv, base.links_csv)
        << "shards=" << shards << " threads=" << threads;
  }
}

TEST(ShardedSim, ValiantConservesAndInflatesHops) {
  const HyperButterfly hb(2, 3);
  SimConfig cfg = sharded_config();
  const SimStats native = run_simulation_sharded(hb, cfg);
  cfg.routing = RoutingMode::kValiant;
  const ShardedRun a = run_sharded(hb, cfg, 1, 1);
  const ShardedRun b = run_sharded(hb, cfg, 4, 8);
  EXPECT_EQ(a.stats.delivered(), a.stats.injected());
  EXPECT_GT(a.stats.delivered(), 0u);
  // Routing through a random intermediate costs extra hops on average.
  EXPECT_GT(a.stats.mean_hops(), native.mean_hops());
  // The determinism contract holds in Valiant mode too (the re-plan at the
  // intermediate happens at service time, identically in every sharding).
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.links_csv, b.links_csv);
}

TEST(ShardedSim, ZeroLoadLatencyTracksHops) {
  // At vanishing load, queueing is negligible: latency ~= hops.
  const HyperButterfly hb(2, 3);
  SimConfig cfg = sharded_config();
  cfg.injection_rate = 0.002;
  const SimStats stats = run_simulation_sharded(hb, cfg);
  ASSERT_GT(stats.delivered(), 0u);
  EXPECT_NEAR(stats.mean_latency(), stats.mean_hops(), 0.5);
}

TEST(ShardedSim, ServiceRateTwoRelievesContention) {
  const HyperButterfly hb(2, 3);
  SimConfig cfg = sharded_config();
  cfg.injection_rate = 0.2;
  const ShardedRun sr1 = run_sharded(hb, cfg, 1, 1);
  cfg.service_rate = 2;
  const ShardedRun a = run_sharded(hb, cfg, 1, 1);
  const ShardedRun b = run_sharded(hb, cfg, 4, 2);
  EXPECT_EQ(a.stats.delivered(), a.stats.injected());
  EXPECT_LE(a.stats.mean_latency(), sr1.stats.mean_latency());
  // Multi-slot emission (service_rate > 1) preserves the contract.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.links_csv, b.links_csv);
}

// The quoted instrument names in a metrics JSON document: every key that
// names a metric carries a dotted namespace ("sim.cycles"); the fields
// inside a histogram object do not.
std::set<std::string> metric_names(const std::string& json) {
  static const std::regex kName(R"re("([a-z_]+\.[a-z_.]+)":)re");
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), kName);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

TEST(ShardedSim, ExportsTheSerialEnginesMetricNames) {
  // Both SF engines export through one function, so a fault-free run
  // reports the same set of metric names on either engine (the drop-cause
  // counters included, at 0 on the sharded engine).
  const HyperButterfly hb(2, 3);
  const SimConfig cfg = sharded_config();
  const ShardedRun sharded = run_sharded(hb, cfg, 4, 2);
  auto topo = make_hyper_butterfly_sim(2, 3);
  obs::Sink sink;
  (void)run_simulation(*topo, cfg, {}, &sink);
  std::ostringstream serial;
  sink.write_metrics_json(serial);
  const std::set<std::string> names = metric_names(serial.str());
  EXPECT_TRUE(names.count("sim.dropped_unroutable"));
  EXPECT_TRUE(names.count("sim.packet_latency"));
  EXPECT_EQ(metric_names(sharded.metrics_json), names);
}

TEST(ShardedSim, MeanHopsAgreesWithSerialEngine) {
  // Different RNGs, same distribution: mean hops under uniform traffic must
  // agree statistically between the serial and sharded engines.
  const unsigned m = 2, n = 3;
  const HyperButterfly hb(m, n);
  SimConfig cfg = sharded_config();
  cfg.injection_rate = 0.05;
  cfg.measure_cycles = 500;
  const SimStats sharded = run_simulation_sharded(hb, cfg);
  auto topo = make_hyper_butterfly_sim(m, n);
  const SimStats serial = run_simulation(*topo, cfg);
  ASSERT_GT(sharded.delivered(), 1000u);
  ASSERT_GT(serial.delivered(), 1000u);
  EXPECT_NEAR(sharded.mean_hops(), serial.mean_hops(), 0.25);
}

}  // namespace
}  // namespace hbnet
