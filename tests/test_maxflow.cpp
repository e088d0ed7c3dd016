// Tests for max-flow, vertex/edge connectivity and disjoint-path extraction
// and verification -- the machinery behind Corollary 1's audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>

#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/maxflow.hpp"
#include "topology/butterfly.hpp"
#include "topology/guest_graphs.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {
namespace {

TEST(Dinic, SimpleDiamond) {
  Dinic d(4);
  d.add_arc(0, 1, 1);
  d.add_arc(0, 2, 1);
  d.add_arc(1, 3, 1);
  d.add_arc(2, 3, 1);
  EXPECT_EQ(d.max_flow(0, 3, 100), 2);
}

TEST(Dinic, RespectsLimit) {
  Dinic d(2);
  d.add_arc(0, 1, 5);
  EXPECT_EQ(d.max_flow(0, 1, 3), 3);
}

TEST(Dinic, FlowOnReportsArcUsage) {
  Dinic d(3);
  std::uint32_t a01 = d.add_arc(0, 1, 2);
  std::uint32_t a12 = d.add_arc(1, 2, 1);
  EXPECT_EQ(d.max_flow(0, 2, 100), 1);
  EXPECT_EQ(d.flow_on(a01), 1);
  EXPECT_EQ(d.flow_on(a12), 1);
}

TEST(Connectivity, CycleIsTwoConnected) {
  Graph c = make_cycle(9);
  EXPECT_EQ(vertex_connectivity(c), 2u);
  EXPECT_EQ(edge_connectivity(c), 2u);
  EXPECT_EQ(max_disjoint_paths(c, 0, 4), 2u);
}

TEST(Connectivity, PathIsOneConnected) {
  Graph p = make_path(6);
  EXPECT_EQ(vertex_connectivity(p), 1u);
  EXPECT_EQ(edge_connectivity(p), 1u);
}

TEST(Connectivity, TreeIsOneConnected) {
  EXPECT_EQ(vertex_connectivity(make_complete_binary_tree(4)), 1u);
}

TEST(Connectivity, CompleteGraph) {
  GraphBuilder b(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) b.add_edge(u, v);
  }
  Graph k6 = b.build();
  EXPECT_EQ(vertex_connectivity(k6), 5u);
  EXPECT_EQ(edge_connectivity(k6), 5u);
}

TEST(Connectivity, HypercubesAreMaximallyFaultTolerant) {
  for (unsigned m = 2; m <= 5; ++m) {
    EXPECT_EQ(vertex_connectivity(Hypercube(m).to_graph()), m) << "m=" << m;
  }
}

TEST(Connectivity, CutVertexDetected) {
  // Two triangles sharing vertex 2: kappa = 1.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 2);
  EXPECT_EQ(vertex_connectivity(b.build()), 1u);
}

TEST(Connectivity, SampledCheckAgreesOnHypercube) {
  Graph g = Hypercube(5).to_graph();
  EXPECT_TRUE(check_local_connectivity_sampled(g, 5, 20));
  EXPECT_FALSE(check_local_connectivity_sampled(g, 6, 20));
}

TEST(FlowDisjointPaths, ExtractsValidFamilies) {
  Graph g = Hypercube(4).to_graph();
  for (NodeId t : {1u, 3u, 7u, 15u, 10u}) {
    std::vector<Path> paths = flow_disjoint_paths(g, 0, t);
    EXPECT_EQ(paths.size(), 4u) << "t=" << t;
    PathFamilyCheck check = check_disjoint_paths(g, paths, 0, t);
    EXPECT_TRUE(check.ok) << check.error;
  }
}

TEST(FlowDisjointPaths, ForbiddenEdgeHonored) {
  Graph g = Hypercube(3).to_graph();
  // 0 and 1 are adjacent; avoiding the direct edge still yields 2 paths.
  std::vector<Path> paths = flow_disjoint_paths(g, 0, 1, {0, 1});
  EXPECT_EQ(paths.size(), 2u);
  for (const Path& p : paths) {
    EXPECT_GT(p.size(), 2u);  // no direct edge used
  }
  PathFamilyCheck check = check_disjoint_paths(g, paths, 0, 1);
  EXPECT_TRUE(check.ok) << check.error;
}

/// B_dim's ordered pairs, every stride-th in (s, t) order: the full set on
/// B_3..B_5, a sample of B_6's ~147k pairs.
struct ReuseCase {
  unsigned dim, stride;
};

class SolverReuse : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(SolverReuse, EveryButterflyPairMatchesAFreshSolve) {
  // One solver answers B_n's pairs in a scrambled order, with and without
  // the forbidden direct edge on adjacent pairs; each answer must equal a
  // one-shot solve on a freshly built network. A capacity or flow left
  // behind by an earlier solve would change a later family.
  const ReuseCase& c = GetParam();
  const Graph g = Butterfly(c.dim).to_graph();
  DisjointPathSolver solver(g);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::uint64_t k = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s != t && k++ % c.stride == 0) pairs.emplace_back(s, t);
    }
  }
  std::mt19937_64 rng(c.dim);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  std::size_t mismatches = 0, forbidden_solves = 0;
  for (const auto& [s, t] : pairs) {
    if (solver.solve(s, t) != flow_disjoint_paths(g, s, t)) {
      if (++mismatches == 1) ADD_FAILURE() << "pair " << s << " -> " << t;
    }
    if (g.has_edge(s, t)) {
      ++forbidden_solves;
      const std::vector<Path> reused = solver.solve(s, t, {s, t});
      EXPECT_EQ(reused.size(), 3u);
      if (reused != flow_disjoint_paths(g, s, t, {s, t})) {
        if (++mismatches == 1) {
          ADD_FAILURE() << "pair " << s << " -> " << t << " avoiding s-t";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  if (c.stride == 1) {
    EXPECT_EQ(forbidden_solves, 4u * g.num_nodes());  // B_n is 4-regular
  } else {
    EXPECT_GT(forbidden_solves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Butterflies, SolverReuse,
    ::testing::Values(ReuseCase{3, 1}, ReuseCase{4, 1}, ReuseCase{5, 1},
                      ReuseCase{6, 61}),
    [](const ::testing::TestParamInfo<ReuseCase>& info) {
      const ReuseCase& c = info.param;
      return "B" + std::to_string(c.dim) +
             (c.stride == 1 ? std::string()
                            : "_stride" + std::to_string(c.stride));
    });

TEST(SolverReuse, RejectsEqualEndpoints) {
  const Graph g = Hypercube(3).to_graph();
  DisjointPathSolver solver(g);
  EXPECT_THROW((void)solver.solve(2, 2), std::invalid_argument);
}

TEST(CheckDisjointPaths, CatchesViolations) {
  Graph g = make_cycle(6);
  // Not a path: jumps.
  std::vector<Path> bad1{{0, 2, 3}};
  EXPECT_FALSE(check_disjoint_paths(g, bad1, 0, 3).ok);
  // Repeated vertex.
  std::vector<Path> bad2{{0, 1, 0, 5}};
  EXPECT_FALSE(check_disjoint_paths(g, bad2, 0, 5).ok);
  // Shared interior.
  std::vector<Path> bad3{{0, 1, 2, 3}, {0, 5, 4, 3}, {0, 1, 2, 3}};
  EXPECT_FALSE(check_disjoint_paths(g, bad3, 0, 3).ok);
  // Wrong endpoints.
  std::vector<Path> bad4{{1, 2, 3}};
  EXPECT_FALSE(check_disjoint_paths(g, bad4, 0, 3).ok);
  // A clean family.
  std::vector<Path> good{{0, 1, 2, 3}, {0, 5, 4, 3}};
  EXPECT_TRUE(check_disjoint_paths(g, good, 0, 3).ok);
  EXPECT_EQ(max_path_length(good), 3u);
}

}  // namespace
}  // namespace hbnet
