// Verification utilities for families of vertex-disjoint paths.
//
// The constructive algorithms (hypercube m paths, butterfly 4 paths,
// hyper-butterfly m+4 paths per Theorem 5) produce explicit vertex
// sequences; this module checks their validity against the host graph.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/maxflow.hpp"

namespace hbnet {

/// A path as an explicit vertex sequence, endpoints included.
using Path = std::vector<NodeId>;

/// Outcome of validating a path family.
struct PathFamilyCheck {
  bool ok = true;
  std::string error;  // first violation found, empty when ok
};

/// Checks a single path: consecutive vertices adjacent in g, no repeated
/// vertex, endpoints equal to s and t.
[[nodiscard]] PathFamilyCheck check_path(const Graph& g, const Path& p,
                                         NodeId s, NodeId t);

/// Checks that all paths are valid s-t paths and pairwise internally vertex
/// disjoint (they may share only the endpoints s and t).
[[nodiscard]] PathFamilyCheck check_disjoint_paths(const Graph& g,
                                                   std::span<const Path> paths,
                                                   NodeId s, NodeId t);

/// Length (edge count) of the longest path in the family; 0 for empty.
[[nodiscard]] std::size_t max_path_length(std::span<const Path> paths);

/// Reusable vertex-split unit-capacity flow network of one graph, for
/// repeated maximum disjoint-path extractions on the same graph (the
/// Theorem-5 construction solves one butterfly-layer pair per family).
///
/// Built once from detail::make_split_prototype: v_in = 2v, v_out = 2v+1,
/// unit in->out arcs, one unit arc u_out -> v_in per direction of each edge
/// in neighbor order. Each solve() widens the two terminal arcs, gives a
/// forbidden edge's arcs capacity 0 (Dinic skips a zero-capacity arc exactly
/// like a missing one), runs Dinic, decomposes the flow, and restores what
/// it changed plus the O(flow) arcs the flow touched. A solve therefore
/// allocates only its output paths, and its result is the same as on a
/// freshly built network.
///
/// Keeps no reference to the graph. Not thread safe: use one per thread.
class DisjointPathSolver {
 public:
  explicit DisjointPathSolver(const Graph& g);

  /// A maximum family of internally vertex-disjoint s-t paths (s != t).
  /// Path k leaves s through s's k-th last flow-carrying arc in neighbor
  /// order. `forbidden_edge`: optional undirected edge the flow must not use
  /// (pass {kInvalidNode, kInvalidNode} for none). This supports the "direct
  /// edge + k-1 paths avoiding it" decomposition used when s and t are
  /// adjacent.
  [[nodiscard]] std::vector<Path> solve(
      NodeId s, NodeId t,
      std::pair<NodeId, NodeId> forbidden_edge = {kInvalidNode,
                                                  kInvalidNode});

  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;

 private:
  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(offsets_.size() - 1);
  }
  /// Index of the arc u_out -> (j-th neighbor of u)_in.
  [[nodiscard]] std::uint32_t out_arc(NodeId u, std::uint64_t j) const;
  [[nodiscard]] NodeId out_arc_head(std::uint32_t arc) const {
    return dinic_.arc_to(arc) / 2;  // v_in -> vertex id
  }
  /// Sets every arc a_out -> b_in to `capacity`.
  void set_edge_capacity(NodeId a, NodeId b, std::int32_t capacity);
  /// Puts back what solve(s, t, forbidden_edge) changed: the terminal and
  /// forbidden arcs' unit capacities and the pushed flow.
  void restore(NodeId s, NodeId t, std::pair<NodeId, NodeId> forbidden_edge);

  std::vector<std::uint64_t> offsets_;  // CSR row offsets of the graph
  Dinic dinic_;
};

/// Extracts a maximum family of internally vertex-disjoint s-t paths from a
/// unit-capacity max-flow on the vertex-split network: one solve on a fresh
/// DisjointPathSolver, whose documentation gives the path order and the
/// meaning of `forbidden_edge`. Generic (works on any graph) and exact; the
/// reference implementation for the Theorem-5 butterfly family, which
/// reuses one solver per thread instead.
[[nodiscard]] std::vector<Path> flow_disjoint_paths(
    const Graph& g, NodeId s, NodeId t,
    std::pair<NodeId, NodeId> forbidden_edge = {kInvalidNode, kInvalidNode});

}  // namespace hbnet
