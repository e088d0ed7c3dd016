// Thread-count invariance of the parallel analysis engine: every routine
// must return results identical (bit-identical for doubles) to its serial
// reference and to itself at any thread count -- the determinism contract
// of hbnet::par (see docs/performance.md).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/parallel_bfs.hpp"

namespace hbnet {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

Graph random_connected_graph(NodeId n, double p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  GraphBuilder b(n);
  for (NodeId u = 1; u < n; ++u) {
    // Random spanning-tree edge first so the graph is always connected.
    b.add_edge(u, std::uniform_int_distribution<NodeId>(0, u - 1)(rng));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (coin(rng) < p) b.add_edge(u, v);
    }
  }
  return b.build();
}

/// Serial all-sources reference sweep (intentionally naive).
Dist serial_diameter(const Graph& g) {
  Dist d = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Dist e = eccentricity(g, v);
    if (e == kUnreachable) return kUnreachable;
    d = std::max(d, e);
  }
  return d;
}

double serial_average_distance(const Graph& g) {
  unsigned long long total = 0, pairs = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    BfsResult r = bfs(g, s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == s || r.dist[v] == kUnreachable) continue;
      total += r.dist[v];
      ++pairs;
    }
  }
  return pairs == 0
             ? 0.0
             : static_cast<double>(static_cast<long double>(total) /
                                   static_cast<long double>(pairs));
}

TEST(ParallelAnalysis, DiameterMatchesSerialEverywhere) {
  const Graph graphs[] = {HyperButterfly(1, 3).to_graph(),
                          random_connected_graph(80, 0.08, 7)};
  for (const Graph& g : graphs) {
    const Dist expected = serial_diameter(g);
    for (unsigned t : kThreadCounts) {
      EXPECT_EQ(parallel_diameter(g, t), expected) << t << " threads";
    }
    EXPECT_EQ(diameter(g), expected);  // serial entry point delegates
  }
}

TEST(ParallelAnalysis, DiameterOfDisconnectedGraphIsUnreachable) {
  GraphBuilder b(6);  // two triangles
  b.add_edge(0, 1), b.add_edge(1, 2), b.add_edge(2, 0);
  b.add_edge(3, 4), b.add_edge(4, 5), b.add_edge(5, 3);
  const Graph g = b.build();
  for (unsigned t : kThreadCounts) {
    EXPECT_EQ(parallel_diameter(g, t), kUnreachable);
  }
}

TEST(ParallelAnalysis, EccentricitiesMatchSerialPerVertex) {
  const Graph g = random_connected_graph(60, 0.1, 11);
  for (unsigned t : kThreadCounts) {
    const std::vector<Dist> ecc = parallel_eccentricities(g, t);
    ASSERT_EQ(ecc.size(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(ecc[v], eccentricity(g, v)) << "vertex " << v;
    }
  }
}

TEST(ParallelAnalysis, AverageDistanceBitIdenticalAcrossThreadCounts) {
  const Graph graphs[] = {HyperButterfly(1, 3).to_graph(),
                          random_connected_graph(70, 0.07, 3)};
  for (const Graph& g : graphs) {
    const double expected = serial_average_distance(g);
    for (unsigned t : kThreadCounts) {
      // Bit-identical, not approximately equal: the parallel sum is an
      // exact integer reduction, the division happens once at the end.
      EXPECT_EQ(parallel_average_distance(g, t), expected);
    }
    EXPECT_EQ(average_distance(g, g.num_nodes()), expected);
  }
}

TEST(ParallelAnalysis, VertexConnectivityExactAndThreadInvariant) {
  struct Case {
    Graph g;
    std::uint32_t kappa;
  };
  const Case cases[] = {{HyperButterfly(1, 3).to_graph(), 5},
                        {HyperButterfly(2, 3).to_graph(), 6}};
  for (const Case& c : cases) {
    for (unsigned t : kThreadCounts) {
      EXPECT_EQ(vertex_connectivity(c.g, t), c.kappa) << t << " threads";
    }
  }
}

TEST(ParallelAnalysis, VertexConnectivityOnRandomGraphsThreadInvariant) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = random_connected_graph(40, 0.12, seed);
    const std::uint32_t expected = vertex_connectivity(g, 1);
    for (unsigned t : {2u, 8u}) {
      EXPECT_EQ(vertex_connectivity(g, t), expected) << "seed " << seed;
    }
  }
}

TEST(ParallelAnalysis, EdgeConnectivityExactAndThreadInvariant) {
  const Graph hb = HyperButterfly(1, 3).to_graph();
  for (unsigned t : kThreadCounts) {
    EXPECT_EQ(edge_connectivity(hb, t), 5u);
  }
  for (std::uint64_t seed : {5, 9}) {
    const Graph g = random_connected_graph(40, 0.12, seed);
    const std::uint32_t expected = edge_connectivity(g, 1);
    EXPECT_GE(expected, vertex_connectivity(g, 1));  // Whitney's inequality
    for (unsigned t : {2u, 8u}) {
      EXPECT_EQ(edge_connectivity(g, t), expected) << "seed " << seed;
    }
  }
}

TEST(ParallelAnalysis, SampledConnectivityThreadInvariant) {
  const Graph g = HyperButterfly(2, 3).to_graph();
  for (unsigned t : kThreadCounts) {
    // kappa = 6: target 6 holds on every pair, target 7 fails on every pair.
    EXPECT_TRUE(check_local_connectivity_sampled(g, 6, 12, 99, t));
    EXPECT_FALSE(check_local_connectivity_sampled(g, 7, 12, 99, t));
  }
}

TEST(ParallelAnalysis, DisjointPathAuditPassesOnHb13) {
  const HyperButterfly hb(1, 3);
  for (unsigned t : {1u, 4u}) {
    const DisjointPathsAudit audit = audit_disjoint_paths(hb, t);
    EXPECT_TRUE(audit.ok) << audit.error;
    EXPECT_EQ(audit.pairs_checked, hb.num_nodes() * (hb.num_nodes() - 1));
    EXPECT_TRUE(audit.error.empty());
  }
}

TEST(ParallelAnalysis, DisjointPathAuditThreadInvariant) {
  // One and four workers audit the same shared instance and must agree.
  const HyperButterfly hb(2, 3);
  const DisjointPathsAudit serial = audit_disjoint_paths(hb, 1);
  const DisjointPathsAudit parallel = audit_disjoint_paths(hb, 4);
  EXPECT_TRUE(serial.ok) << serial.error;
  EXPECT_EQ(parallel.ok, serial.ok);
  EXPECT_EQ(parallel.pairs_checked, serial.pairs_checked);
  EXPECT_EQ(parallel.error, serial.error);
}

}  // namespace
}  // namespace hbnet
