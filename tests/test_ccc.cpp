// Cube-connected cycles CCC(n): structure, exact routing vs BFS, Cayley
// audit -- the extended bounded-degree baseline.
#include <gtest/gtest.h>

#include "graph/adjacency.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"

namespace hbnet {
namespace {

TEST(Ccc, CountsAndBasics) {
  CubeConnectedCycles ccc(4);
  EXPECT_EQ(ccc.num_nodes(), 64u);
  EXPECT_EQ(ccc.num_edges(), 96u);
  EXPECT_EQ(CubeConnectedCycles::degree(), 3u);
  EXPECT_THROW(CubeConnectedCycles(2), std::invalid_argument);
}

class CccParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(CccParam, GraphIsThreeRegular) {
  CubeConnectedCycles ccc(GetParam());
  Graph g = ccc.to_graph();
  EXPECT_EQ(g.num_nodes(), ccc.num_nodes());
  EXPECT_EQ(g.num_edges(), ccc.num_edges());
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 3u);
}

TEST_P(CccParam, CayleyAudit) {
  CayleyAudit a = audit(CubeConnectedCycles(GetParam()).cayley_spec());
  EXPECT_TRUE(a.all_ok());
}

TEST_P(CccParam, DistanceMatchesBfsExhaustively) {
  const unsigned n = GetParam();
  CubeConnectedCycles ccc(n);
  Graph g = ccc.to_graph();
  BfsResult r = bfs(g, ccc.index_of({0, 0}));
  for (NodeId id = 0; id < ccc.num_nodes(); ++id) {
    EXPECT_EQ(ccc.distance({0, 0}, ccc.node_at(id)), r.dist[id])
        << "id=" << id;
  }
}

TEST_P(CccParam, RouteValidAndOptimal) {
  const unsigned n = GetParam();
  CubeConnectedCycles ccc(n);
  Graph g = ccc.to_graph();
  for (NodeId s = 0; s < ccc.num_nodes(); s += 5) {
    for (NodeId t = 0; t < ccc.num_nodes(); t += 7) {
      CccNode u = ccc.node_at(s), v = ccc.node_at(t);
      auto path = ccc.route_nodes(u, v);
      EXPECT_EQ(path.size(), ccc.distance(u, v) + 1);
      EXPECT_TRUE(path.front() == u);
      EXPECT_TRUE(path.back() == v);
      for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(ccc.index_of(path[i - 1]),
                               ccc.index_of(path[i])));
      }
    }
  }
}

TEST_P(CccParam, DiameterMatchesFormulaForLargeN) {
  const unsigned n = GetParam();
  Graph g = CubeConnectedCycles(n).to_graph();
  unsigned measured = diameter_vertex_transitive(g);
  if (n >= 4) {
    EXPECT_EQ(measured, 2 * n + n / 2 - 2) << "n=" << n;
  } else {
    EXPECT_EQ(measured, 6u);  // CCC(3) special case
  }
}

TEST_P(CccParam, ConnectivityIsThree) {
  Graph g = CubeConnectedCycles(GetParam()).to_graph();
  EXPECT_TRUE(check_local_connectivity_sampled(g, 3, 10));
}

INSTANTIATE_TEST_SUITE_P(Dims, CccParam, ::testing::Values(3u, 4u, 5u, 6u));

/// FNV-1a digest of CubeConnectedCycles::route_nodes over every ordered
/// pair of CCC(n) (source index major): each path's length, then its node
/// indices. Pins which optimal route is chosen, not just its length.
std::uint64_t route_digest(const CubeConnectedCycles& ccc) {
  std::uint64_t h = detail::kFnv1aBasis;
  for (NodeId s = 0; s < ccc.num_nodes(); ++s) {
    for (NodeId t = 0; t < ccc.num_nodes(); ++t) {
      const std::vector<CccNode> path =
          ccc.route_nodes(ccc.node_at(s), ccc.node_at(t));
      detail::fnv1a_mix(h, path.size());
      for (const CccNode& v : path) detail::fnv1a_mix(h, ccc.index_of(v));
    }
  }
  return h;
}

struct GoldenRoutes {
  unsigned n;
  std::uint64_t digest;
};

// Names the ctest entries by n alone (the default printer dumps the raw
// bytes, padding included).
void PrintTo(const GoldenRoutes& g, std::ostream* os) { *os << "n=" << g.n; }

class CccRouteGolden : public ::testing::TestWithParam<GoldenRoutes> {};

TEST_P(CccRouteGolden, RoutesMatchRecordedDigest) {
  const GoldenRoutes& g = GetParam();
  EXPECT_EQ(route_digest(CubeConnectedCycles(g.n)), g.digest)
      << "CCC(" << g.n << ")";
}

// Recorded from the brute-force interval-enumeration router that the
// closed-form planner replaced; any change to which route is chosen
// changes them.
INSTANTIATE_TEST_SUITE_P(
    Recorded, CccRouteGolden,
    ::testing::Values(GoldenRoutes{3, 16382940860302974467ull},
                      GoldenRoutes{4, 46292855519861123ull},
                      GoldenRoutes{5, 16704263600993306179ull},
                      GoldenRoutes{6, 11041368739062191423ull},
                      GoldenRoutes{7, 504698858261196227ull},
                      GoldenRoutes{8, 3763787626846232771ull}),
    [](const ::testing::TestParamInfo<GoldenRoutes>& info) {
      return "CCC" + std::to_string(info.param.n);
    });

TEST(VisitingWalk, KnownCases) {
  // No required positions: plain cycle distance.
  EXPECT_EQ(plan_visiting_walk(8, 0, 3, 0).length(), 3u);
  EXPECT_EQ(plan_visiting_walk(8, 0, 5, 0).length(), 3u);
  // Visit the antipode and come back.
  EXPECT_EQ(plan_visiting_walk(8, 0, 0, 1ull << 4).length(), 8u);
  // Visit everything, return to start: n-1 out... the walk must touch all
  // n positions: best is almost a full loop.
  EXPECT_EQ(plan_visiting_walk(6, 0, 0, 0b111111).length(), 6u);
  // Visiting start only costs nothing.
  EXPECT_EQ(plan_visiting_walk(6, 2, 2, 1u << 2).length(), 0u);
}

}  // namespace
}  // namespace hbnet
