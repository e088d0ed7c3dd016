// Wrapped butterfly B_n: generators, the Remark-2 isomorphism between the
// two vertex representations, exact routing vs exhaustive BFS, the cycle
// family of Remark 9 and the natural tree.
#include <gtest/gtest.h>

#include "graph/adjacency.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/embedding_check.hpp"
#include "topology/butterfly.hpp"
#include "topology/guest_graphs.hpp"

namespace hbnet {
namespace {

TEST(Butterfly, CountsAndBasics) {
  Butterfly b(4);
  EXPECT_EQ(b.num_nodes(), 64u);
  EXPECT_EQ(b.num_edges(), 128u);
  EXPECT_EQ(Butterfly::degree(), 4u);
  EXPECT_EQ(b.diameter_formula(), 6u);
  EXPECT_THROW(Butterfly(2), std::invalid_argument);
}

TEST(Butterfly, GeneratorInverses) {
  Butterfly b(5);
  for (std::uint32_t w : {0u, 9u, 31u}) {
    for (std::uint32_t l = 0; l < 5; ++l) {
      BflyNode v{w, l};
      EXPECT_EQ(b.apply(b.apply(v, BflyGen::kG), BflyGen::kGInv), v);
      EXPECT_EQ(b.apply(b.apply(v, BflyGen::kF), BflyGen::kFInv), v);
      EXPECT_EQ(b.apply(b.apply(v, BflyGen::kGInv), BflyGen::kG), v);
      EXPECT_EQ(b.apply(b.apply(v, BflyGen::kFInv), BflyGen::kF), v);
    }
  }
}

TEST(Butterfly, GeneratorOrders) {
  // g has order n (a full level loop); f has order 2n (two loops,
  // complementing every symbol once per loop).
  Butterfly b(5);
  BflyNode v{0b10110, 2};
  BflyNode cur = v;
  for (int i = 0; i < 5; ++i) cur = b.apply(cur, BflyGen::kG);
  EXPECT_EQ(cur, v);
  cur = v;
  for (int i = 0; i < 10; ++i) cur = b.apply(cur, BflyGen::kF);
  EXPECT_EQ(cur, v);
  cur = v;
  for (int i = 0; i < 5; ++i) cur = b.apply(cur, BflyGen::kF);
  EXPECT_EQ(cur.level, v.level);
  EXPECT_EQ(cur.word, v.word ^ 0b11111u);  // all symbols complemented
}

TEST(Butterfly, FourDistinctNeighbors) {
  Butterfly b(3);
  for (NodeId id = 0; id < b.num_nodes(); ++id) {
    auto nbrs = b.neighbors(b.node_at(id));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_FALSE(nbrs[i] == b.node_at(id));
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        EXPECT_FALSE(nbrs[i] == nbrs[j]) << "id=" << id;
      }
    }
  }
}

TEST(Butterfly, LabelRoundTripAndPIC) {
  Butterfly b(4);
  // Identity node: level 0, nothing complemented.
  EXPECT_EQ(b.label({0, 0}), "abcd");
  EXPECT_EQ(b.permutation_index({0, 0}), 0u);
  EXPECT_EQ(b.complementation_index({0, 0}), 0u);
  // One left shift: label starts at symbol b (Definition 1: PI 1).
  EXPECT_EQ(b.label({0, 1}), "bcda");
  EXPECT_EQ(b.permutation_index({0, 1}), 1u);
  // Complement symbol 'a' (bit 0): appears uppercase wherever 'a' sits.
  EXPECT_EQ(b.label({1, 0}), "Abcd");
  EXPECT_EQ(b.label({1, 1}), "bcdA");
  // CI is position-based: for level 1 with symbol a complemented, 'A' sits
  // at label position 4 -> CI bit 3.
  EXPECT_EQ(b.complementation_index({1, 1}), 0b1000u);
  for (NodeId id = 0; id < b.num_nodes(); ++id) {
    BflyNode v = b.node_at(id);
    EXPECT_EQ(b.from_label(b.label(v)), v) << b.label(v);
  }
}

TEST(Butterfly, FromLabelRejectsGarbage) {
  Butterfly b(3);
  EXPECT_THROW((void)b.from_label("ab"), std::invalid_argument);   // length
  EXPECT_THROW((void)b.from_label("acb"), std::invalid_argument);  // order
}

class ButterflyParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(ButterflyParam, GraphMatchesTheory) {
  Butterfly b(GetParam());
  Graph g = b.to_graph();
  EXPECT_EQ(g.num_nodes(), b.num_nodes());
  EXPECT_EQ(g.num_edges(), b.num_edges());
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
}

TEST_P(ButterflyParam, CayleyAudit) {
  CayleyAudit a = audit(Butterfly(GetParam()).cayley_spec());
  EXPECT_TRUE(a.all_ok());
}

TEST_P(ButterflyParam, DistanceMatchesBfsExhaustively) {
  const unsigned n = GetParam();
  Butterfly b(n);
  Graph g = b.to_graph();
  // Vertex transitivity: distances from the identity suffice.
  BfsResult r = bfs(g, b.index_of({0, 0}));
  for (NodeId id = 0; id < b.num_nodes(); ++id) {
    EXPECT_EQ(b.distance({0, 0}, b.node_at(id)), r.dist[id]) << "id=" << id;
  }
}

TEST_P(ButterflyParam, RouteIsValidAndOptimal) {
  const unsigned n = GetParam();
  Butterfly b(n);
  Graph g = b.to_graph();
  for (NodeId s = 0; s < b.num_nodes(); s += 5) {
    for (NodeId t = 0; t < b.num_nodes(); t += 7) {
      BflyNode u = b.node_at(s), v = b.node_at(t);
      auto nodes = b.route_nodes(u, v);
      EXPECT_EQ(nodes.size(), b.distance(u, v) + 1);
      EXPECT_EQ(nodes.front(), u);
      EXPECT_EQ(nodes.back(), v);
      for (std::size_t i = 1; i < nodes.size(); ++i) {
        EXPECT_TRUE(g.has_edge(b.index_of(nodes[i - 1]), b.index_of(nodes[i])));
      }
    }
  }
}

TEST_P(ButterflyParam, MeasuredDiameterIsFloor3nOver2) {
  // Remark 1 claims floor(3n/2); Theorem 3's bound uses ceil(3n/2). The
  // measured value settles it (equal for even n).
  const unsigned n = GetParam();
  Graph g = Butterfly(n).to_graph();
  EXPECT_EQ(diameter_vertex_transitive(g), 3 * n / 2) << "n=" << n;
}

TEST_P(ButterflyParam, ConnectivityIsFour) {
  Graph g = Butterfly(GetParam()).to_graph();
  EXPECT_TRUE(check_local_connectivity_sampled(g, 4, 12));
}

TEST_P(ButterflyParam, CycleFamilyKn) {
  const unsigned n = GetParam();
  Butterfly b(n);
  Graph g = b.to_graph();
  for (std::uint32_t k : {1u, 2u, 3u, 5u, (1u << n) - 1, 1u << n}) {
    if (k < 1 || k > (1u << n)) continue;
    auto cycle = b.cycle(k, 0);
    ASSERT_EQ(cycle.size(), static_cast<std::size_t>(k) * n) << "k=" << k;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_TRUE(g.has_edge(b.index_of(cycle[i]),
                             b.index_of(cycle[(i + 1) % cycle.size()])))
          << "k=" << k << " i=" << i;
    }
    std::vector<NodeId> ids;
    for (BflyNode v : cycle) ids.push_back(b.index_of(v));
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "repeat in k=" << k;
  }
}

TEST_P(ButterflyParam, HamiltonianCycle) {
  const unsigned n = GetParam();
  Butterfly b(n);
  auto cycle = b.cycle(1u << n, 0);
  EXPECT_EQ(cycle.size(), b.num_nodes());
}

TEST_P(ButterflyParam, CycleFamilyWithBounces) {
  const unsigned n = GetParam();
  Butterfly b(n);
  Graph g = b.to_graph();
  for (std::uint32_t k : {1u, 2u, 4u}) {
    for (std::uint32_t kp : {1u, 2u, 3u}) {
      if (k + kp > (1u << n)) continue;
      auto cycle = b.cycle(k, kp);
      ASSERT_EQ(cycle.size(), static_cast<std::size_t>(k) * n + 2 * kp);
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        EXPECT_TRUE(g.has_edge(b.index_of(cycle[i]),
                               b.index_of(cycle[(i + 1) % cycle.size()])))
            << "k=" << k << " k'=" << kp << " i=" << i;
      }
      std::vector<NodeId> ids;
      for (BflyNode v : cycle) ids.push_back(b.index_of(v));
      std::sort(ids.begin(), ids.end());
      EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
    }
  }
}

TEST_P(ButterflyParam, NaturalTreeIsValidEmbedding) {
  const unsigned n = GetParam();
  Butterfly b(n);
  Graph host = b.to_graph();
  auto tree = b.natural_tree(0, n - 1);  // T(n): 2^n - 1 vertices
  Graph guest = make_complete_binary_tree(n);
  ASSERT_EQ(tree.size(), guest.num_nodes());
  std::vector<NodeId> map;
  for (BflyNode v : tree) map.push_back(b.index_of(v));
  EmbeddingCheck check = check_embedding(guest, host, map);
  EXPECT_TRUE(check.dilation_one) << check.error;
}

INSTANTIATE_TEST_SUITE_P(Dims, ButterflyParam,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u));

/// FNV-1a digest of Butterfly::route over every ordered pair of B_n (source
/// index major): each route's length, then its generators. Pins which
/// optimal route is chosen, not just its length.
std::uint64_t route_digest(const Butterfly& b) {
  std::uint64_t h = detail::kFnv1aBasis;
  for (NodeId s = 0; s < b.num_nodes(); ++s) {
    for (NodeId t = 0; t < b.num_nodes(); ++t) {
      const std::vector<BflyGen> gens = b.route(b.node_at(s), b.node_at(t));
      detail::fnv1a_mix(h, gens.size());
      for (BflyGen g : gens) detail::fnv1a_mix(h, static_cast<unsigned>(g));
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

class ButterflyRouteGolden : public ::testing::TestWithParam<GoldenRoutes> {};

TEST_P(ButterflyRouteGolden, RoutesMatchRecordedDigest) {
  const GoldenRoutes& g = GetParam();
  EXPECT_EQ(route_digest(Butterfly(g.n)), g.digest) << "B_" << g.n;
}

// Recorded from the brute-force interval-enumeration router that the
// closed-form planner replaced; any change to which route is chosen
// changes them.
INSTANTIATE_TEST_SUITE_P(
    Recorded, ButterflyRouteGolden,
    ::testing::Values(GoldenRoutes{3, 15714703766600315651ull},
                      GoldenRoutes{4, 4214308511579696003ull},
                      GoldenRoutes{5, 15222376701901626243ull},
                      GoldenRoutes{6, 7788468332765918083ull},
                      GoldenRoutes{7, 16022155847648686979ull},
                      GoldenRoutes{8, 10132973670928417667ull}),
    [](const ::testing::TestParamInfo<GoldenRoutes>& info) {
      return "B" + std::to_string(info.param.n);
    });

TEST(CoveringWalk, KnownCases) {
  // No required edges: straight-line distance on the level cycle.
  EXPECT_EQ(plan_covering_walk(8, 0, 3, 0).length(), 3u);
  // Wrap the short way.
  EXPECT_EQ(plan_covering_walk(8, 0, 5, 0).length(), 3u);
  EXPECT_EQ(plan_covering_walk(8, 2, 2, 0).length(), 0u);
  // One required edge right next to the start, ending at start: cross and
  // return.
  EXPECT_EQ(plan_covering_walk(8, 0, 0, 0b1).length(), 2u);
  // All edges required, ending at start: one full loop.
  EXPECT_EQ(plan_covering_walk(6, 0, 0, 0b111111).length(), 6u);
  // All edges required, antipodal target: 3n/2 (the diameter witness).
  EXPECT_EQ(plan_covering_walk(6, 0, 3, 0b111111).length(), 9u);
  // Out of domain: a level off the cycle, or a cycle longer than the
  // 64-bit required mask.
  EXPECT_THROW((void)plan_covering_walk(8, 8, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)plan_visiting_walk(8, 0, 9, 0), std::invalid_argument);
  EXPECT_THROW((void)plan_covering_walk(65, 0, 0, 0), std::invalid_argument);
}

TEST(CoveringWalk, StepsMatchReportedLength) {
  for (unsigned n : {3u, 5u, 8u}) {
    const Butterfly b(n);
    for (unsigned s = 0; s < n; ++s) {
      for (unsigned t = 0; t < n; ++t) {
        for (std::uint64_t req = 0; req < (1ull << n); req += 3) {
          const CoveringWalkPlan plan = plan_covering_walk(n, s, t, req);
          // Walk simulation: the runs sum to length(), end at t and cover
          // every required edge.
          unsigned cur = s;
          unsigned steps = 0;
          std::uint64_t covered = 0;
          for (unsigned i = 0; i < 3; ++i) {
            const int d = plan.dir(i);
            for (unsigned k = 0; k < plan.run(i); ++k, ++steps) {
              unsigned edge = d > 0 ? cur : (cur + n - 1) % n;
              covered |= 1ull << edge;
              cur = static_cast<unsigned>(
                  (static_cast<int>(cur) + d + static_cast<int>(n)) %
                  static_cast<int>(n));
            }
          }
          EXPECT_EQ(steps, plan.length());
          EXPECT_EQ(cur, t);
          EXPECT_EQ(covered & req, req);
          // The butterfly route between the matching nodes takes exactly
          // that many generator steps.
          const auto word = static_cast<std::uint32_t>(req);
          EXPECT_EQ(b.route({0, s}, {word, t}).size(), plan.length());
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbnet
