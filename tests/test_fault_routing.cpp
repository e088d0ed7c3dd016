// Remark 10: fault-tolerant routing. With up to m+3 node faults the
// disjoint-path family always contains a fault-free member.
#include <gtest/gtest.h>

#include <random>

#include "core/fault_routing.hpp"
#include "par/pool.hpp"

namespace hbnet {
namespace {

bool path_valid(const HyperButterfly& hb, const std::vector<HbNode>& path,
                HbNode u, HbNode v, const HbFaultSet& faults) {
  if (path.empty() || !(path.front() == u) || !(path.back() == v)) return false;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (faults.contains(hb, path[i])) return false;
    if (i > 0 && hb.distance(path[i - 1], path[i]) != 1) return false;
  }
  return true;
}

/// `faults` as the dense mask the banned-first overload reads.
std::vector<char> mask_of(const HyperButterfly& hb, const HbFaultSet& faults) {
  std::vector<char> mask(hb.num_nodes(), 0);
  for (HbIndex i = 0; i < hb.num_nodes(); ++i) {
    mask[i] = faults.contains(hb, hb.node_at(i)) ? 1 : 0;
  }
  return mask;
}

TEST(FaultRouting, NoFaultsGivesAPath) {
  HyperButterfly hb(2, 3);
  HbFaultSet faults;
  HbNode u{0, {0, 0}}, v{3, {5, 2}};
  FaultRouteResult r = route_around_faults(hb, u, v, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  EXPECT_FALSE(r.used_fallback);
}

TEST(FaultRouting, SurvivesMaximalRandomFaults) {
  // |F| = m+3 random faults (excluding endpoints): guaranteed detour.
  HyperButterfly hb(2, 3);
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    HbIndex su = pick(rng), sv = pick(rng);
    if (su == sv) continue;
    HbNode u = hb.node_at(su), v = hb.node_at(sv);
    HbFaultSet faults;
    while (faults.size() < hb.cube_dimension() + 3) {
      HbIndex f = pick(rng);
      if (f == su || f == sv) continue;
      faults.add(hb, hb.node_at(f));
    }
    FaultRouteResult r = route_around_faults(hb, u, v, faults,
                                             /*bfs_fallback=*/false);
    ASSERT_TRUE(r.ok()) << "trial=" << trial;
    EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
    EXPECT_FALSE(r.used_fallback);
  }
}

TEST(FaultRouting, AdversarialFaultsOnNeighbors) {
  // Kill m+3 of the m+4 neighbors of u: the one remaining neighbor must
  // carry the route.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  ASSERT_EQ(nbrs.size(), 6u);
  HbFaultSet faults;
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) faults.add(hb, nbrs[i]);
  FaultRouteResult r = route_around_faults(hb, u, v, faults,
                                           /*bfs_fallback=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  EXPECT_TRUE(r.path[1] == nbrs.back());
}

TEST(FaultRouting, FaultyEndpointFails) {
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}}, v{1, {3, 1}};
  HbFaultSet faults;
  faults.add(hb, v);
  EXPECT_FALSE(route_around_faults(hb, u, v, faults).ok());
  // The faulty-source case must fail identically (a dead router cannot
  // originate), with and without the BFS fallback.
  HbFaultSet src_fault;
  src_fault.add(hb, u);
  EXPECT_FALSE(route_around_faults(hb, u, v, src_fault).ok());
  EXPECT_FALSE(
      route_around_faults(hb, u, v, src_fault, /*bfs_fallback=*/false).ok());
}

TEST(FaultRouting, BlockedFamilyFallsBackToBfs) {
  // Deterministically block every Theorem-5 family member: fault all but
  // one neighbor of u (m+3 faults), find the surviving member, then fault
  // its second hop too. That is m+4 faults -- past the guarantee -- so the
  // family is fully blocked, but u keeps one live neighbor and the graph
  // stays connected: the BFS fallback must carry the route and say so.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  ASSERT_EQ(nbrs.size(), hb.cube_dimension() + 4);
  HbFaultSet faults;
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) faults.add(hb, nbrs[i]);
  FaultRouteResult survivor =
      route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
  ASSERT_TRUE(survivor.ok());
  ASSERT_GT(survivor.path.size(), 3u);
  ASSERT_FALSE(survivor.path[2] == v);
  faults.add(hb, survivor.path[2]);

  EXPECT_FALSE(
      route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false).ok());
  FaultRouteResult r = route_around_faults(hb, u, v, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.used_fallback);
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
}

TEST(FaultRouting, BannedFirstHopIsAvoided) {
  // The link-fault variant: banning first hops must steer the route off
  // those edges without consuming more than one family member per ban.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  ASSERT_EQ(nbrs.size(), 6u);
  HbFaultSet faults;
  std::vector<HbNode> banned(nbrs.begin(), nbrs.begin() + 3);
  FaultRouteResult r =
      route_around_faults(hb, u, v, mask_of(hb, faults), banned);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.used_fallback);
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  for (const HbNode& b : banned) EXPECT_FALSE(r.path[1] == b);
}

TEST(FaultRouting, BannedLinksPlusNodeFaultsWithinGuarantee) {
  // |node faults| + |banned first edges| = m+3 < m+4: internal disjointness
  // means each ban kills at most one member, so a clean one must survive.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  std::vector<HbNode> banned(nbrs.begin(), nbrs.begin() + 3);
  HbFaultSet faults;
  faults.add(hb, hb.node_at(17));
  faults.add(hb, hb.node_at(41));
  FaultRouteResult r =
      route_around_faults(hb, u, v, mask_of(hb, faults), banned);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  for (const HbNode& b : banned) EXPECT_FALSE(r.path[1] == b);
}

TEST(FaultRouting, BannedVariantHasNoFallback) {
  // Ban every outgoing edge of u: no family member can start, and the
  // banned-first variant must report failure rather than BFS around the
  // bans (BFS cannot honor per-edge constraints).
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}}, v{1, {5, 1}};
  HbFaultSet faults;
  const std::vector<HbNode> banned = hb.neighbors(u);
  FaultRouteResult r =
      route_around_faults(hb, u, v, mask_of(hb, faults), banned);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.used_fallback);
  EXPECT_EQ(r.paths_tried, banned.size());
}

TEST(FaultRouting, TrivialSelfRoute) {
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}};
  HbFaultSet faults;
  FaultRouteResult r = route_around_faults(hb, u, u, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path.size(), 1u);
}

TEST(FaultRouting, FallbackBeyondGuarantee) {
  // Saturate well past m+3 faults; the family may be fully blocked but BFS
  // fallback still finds a path while the graph stays connected, or
  // correctly reports failure.
  HyperButterfly hb(1, 3);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  HbNode u{0, {0, 0}}, v{1, {7, 2}};
  HbFaultSet faults;
  while (faults.size() < 12) {
    HbIndex f = pick(rng);
    if (f == hb.index_of(u) || f == hb.index_of(v)) continue;
    faults.add(hb, hb.node_at(f));
  }
  FaultRouteResult r = route_around_faults(hb, u, v, faults);
  if (r.ok()) {
    EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  } else {
    // Verify the reported disconnection against reference BFS.
    EXPECT_EQ(hb_bfs_distance(hb, u, v, &faults), kNoPath);
  }
}

TEST(FaultRouting, ExhaustiveSmallFaultSets) {
  // Every 1-fault and a sweep of 2-fault patterns on HB(1,3): the family
  // must always survive (guarantee is m+3 = 4 faults).
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}}, v{1, {5, 1}};
  const HbIndex nu = hb.index_of(u), nv = hb.index_of(v);
  for (HbIndex f1 = 0; f1 < hb.num_nodes(); ++f1) {
    if (f1 == nu || f1 == nv) continue;
    HbFaultSet faults;
    faults.add(hb, hb.node_at(f1));
    FaultRouteResult r =
        route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
    ASSERT_TRUE(r.ok()) << "f1=" << f1;
    EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  }
  for (HbIndex f1 = 0; f1 < hb.num_nodes(); f1 += 3) {
    for (HbIndex f2 = f1 + 1; f2 < hb.num_nodes(); f2 += 5) {
      if (f1 == nu || f1 == nv || f2 == nu || f2 == nv) continue;
      HbFaultSet faults;
      faults.add(hb, hb.node_at(f1));
      faults.add(hb, hb.node_at(f2));
      FaultRouteResult r =
          route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
      ASSERT_TRUE(r.ok()) << "f1=" << f1 << " f2=" << f2;
      EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
    }
  }
}

/// m+3 random non-endpoint faults per query on HB(2,4), with the queries'
/// endpoints: the fixture of the determinism tests below.
struct FaultQuery {
  HbNode u, v;
  HbFaultSet faults;
  std::vector<char> mask;
};

std::vector<FaultQuery> random_fault_queries(const HyperButterfly& hb,
                                             int count) {
  std::mt19937_64 rng(515);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  std::vector<FaultQuery> queries;
  while (static_cast<int>(queries.size()) < count) {
    const HbIndex su = pick(rng), sv = pick(rng);
    if (su == sv) continue;
    FaultQuery q{hb.node_at(su), hb.node_at(sv), {},
                 std::vector<char>(hb.num_nodes(), 0)};
    while (q.faults.size() < hb.cube_dimension() + 3) {
      const HbIndex f = pick(rng);
      if (f == su || f == sv) continue;
      q.faults.add(hb, hb.node_at(f));
      q.mask[f] = 1;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(FaultRouting, DenseMaskMatchesFaultSet) {
  // With no bans, the simulators' mask overload must pick exactly the route
  // the HbFaultSet overload picks without fallback. A ban on a first hop the
  // unbanned route does not take changes nothing; a mask shorter than
  // num_nodes() leaves the nodes past its end healthy.
  const HyperButterfly hb(2, 4);
  for (const FaultQuery& q : random_fault_queries(hb, 150)) {
    const FaultRouteResult plain =
        route_around_faults(hb, q.u, q.v, q.faults, /*bfs_fallback=*/false);
    const FaultRouteResult masked =
        route_around_faults(hb, q.u, q.v, q.mask, {});
    ASSERT_EQ(plain.path, masked.path);
    EXPECT_EQ(plain.paths_tried, masked.paths_tried);
    ASSERT_TRUE(plain.ok());
    for (const HbNode& w : hb.neighbors(q.u)) {
      if (w == plain.path[1]) continue;
      const FaultRouteResult banned =
          route_around_faults(hb, q.u, q.v, q.mask, {w});
      ASSERT_EQ(banned.path, plain.path);
      EXPECT_EQ(banned.paths_tried, plain.paths_tried);
    }
  }
  const HyperButterfly small(1, 3);
  const HbNode u{0, {0, 0}}, v{1, {5, 1}};
  const std::vector<char> empty_mask;
  EXPECT_EQ(route_around_faults(small, u, v, empty_mask, {}).path,
            route_around_faults(small, u, v, HbFaultSet{}, false).path);
}

TEST(FaultRouting, PoolWorkersOnSharedInstanceMatchSerial) {
  // Four pool workers route on one shared const HyperButterfly at once; the
  // butterfly-layer flow network behind disjoint_paths is per thread, so
  // every answer must equal the serial one. The parallel pass runs first so
  // no thread inherits state from the serial pass.
  const HyperButterfly hb(2, 4);
  const std::vector<FaultQuery> queries = random_fault_queries(hb, 400);
  std::vector<FaultRouteResult> parallel(queries.size());
  par::ThreadPool pool(4);
  pool.parallel_for(queries.size(), [&](std::uint64_t i) {
    const FaultQuery& q = queries[i];
    parallel[i] = route_around_faults(hb, q.u, q.v, q.faults,
                                      /*bfs_fallback=*/false);
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const FaultQuery& q = queries[i];
    const FaultRouteResult serial = route_around_faults(
        hb, q.u, q.v, q.faults, /*bfs_fallback=*/false);
    ASSERT_TRUE(serial.ok()) << "query " << i;
    EXPECT_EQ(parallel[i].path, serial.path) << "query " << i;
    EXPECT_EQ(parallel[i].paths_tried, serial.paths_tried) << "query " << i;
  }
}

}  // namespace
}  // namespace hbnet
