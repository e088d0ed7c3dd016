#include "graph/disjoint_paths.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "check/check.hpp"
#include "graph/connectivity_sweep.hpp"

namespace hbnet {

PathFamilyCheck check_path(const Graph& g, const Path& p, NodeId s, NodeId t) {
  PathFamilyCheck r;
  auto fail = [&r](const std::string& msg) {
    r.ok = false;
    r.error = msg;
    return r;
  };
  if (p.empty()) return fail("empty path");
  if (p.front() != s) return fail("path does not start at s");
  if (p.back() != t) return fail("path does not end at t");
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!seen.insert(p[i]).second) {
      std::ostringstream os;
      os << "repeated vertex " << p[i] << " at position " << i;
      return fail(os.str());
    }
    if (i > 0 && !g.has_edge(p[i - 1], p[i])) {
      std::ostringstream os;
      os << "non-edge (" << p[i - 1] << "," << p[i] << ") at position " << i;
      return fail(os.str());
    }
  }
  return r;
}

PathFamilyCheck check_disjoint_paths(const Graph& g,
                                     std::span<const Path> paths, NodeId s,
                                     NodeId t) {
  PathFamilyCheck r;
  std::unordered_set<NodeId> interior;  // union of interiors seen so far
  for (std::size_t k = 0; k < paths.size(); ++k) {
    PathFamilyCheck single = check_path(g, paths[k], s, t);
    if (!single.ok) {
      std::ostringstream os;
      os << "path " << k << ": " << single.error;
      r.ok = false;
      r.error = os.str();
      return r;
    }
    for (std::size_t i = 1; i + 1 < paths[k].size(); ++i) {
      if (!interior.insert(paths[k][i]).second) {
        std::ostringstream os;
        os << "paths share interior vertex " << paths[k][i] << " (path " << k
           << ")";
        r.ok = false;
        r.error = os.str();
        return r;
      }
    }
  }
  return r;
}

DisjointPathSolver::DisjointPathSolver(const Graph& g)
    : offsets_(g.row_offsets().begin(), g.row_offsets().end()),
      dinic_(detail::make_split_prototype(g)) {
  HBNET_DCHECK(dinic_.num_arcs() == num_nodes() + offsets_.back());
}

std::uint32_t DisjointPathSolver::out_arc(NodeId u, std::uint64_t j) const {
  return detail::split_out_arc(num_nodes(), offsets_[u] + j);
}

bool DisjointPathSolver::has_edge(NodeId a, NodeId b) const {
  for (std::uint64_t j = 0; j < offsets_[a + 1] - offsets_[a]; ++j) {
    if (out_arc_head(out_arc(a, j)) == b) return true;
  }
  return false;
}

void DisjointPathSolver::set_edge_capacity(NodeId a, NodeId b,
                                           std::int32_t capacity) {
  for (std::uint64_t j = 0; j < offsets_[a + 1] - offsets_[a]; ++j) {
    const std::uint32_t arc = out_arc(a, j);
    if (out_arc_head(arc) == b) dinic_.set_arc_capacity(arc, capacity);
  }
}

std::vector<Path> DisjointPathSolver::solve(
    NodeId s, NodeId t, std::pair<NodeId, NodeId> forbidden_edge) {
  if (s == t) throw std::invalid_argument("DisjointPathSolver::solve: s == t");
  // The network outlives this solve, so put it back even if a step below
  // throws (say bad_alloc while building the paths): a widened terminal, a
  // zeroed arc or leftover flow would skew every later solve.
  struct Restorer {
    DisjointPathSolver& solver;
    NodeId s, t;
    std::pair<NodeId, NodeId> forbidden_edge;
    ~Restorer() { solver.restore(s, t, forbidden_edge); }
  } restorer{*this, s, t, forbidden_edge};
  constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max() / 2;
  const auto [fa, fb] = forbidden_edge;
  dinic_.set_arc_capacity(2 * s, kInf);
  dinic_.set_arc_capacity(2 * t, kInf);
  if (fa != kInvalidNode && fb != kInvalidNode) {
    set_edge_capacity(fa, fb, 0);
    set_edge_capacity(fb, fa, 0);
  }
  const std::uint64_t deg_s = offsets_[s + 1] - offsets_[s];
  const std::uint64_t deg_t = offsets_[t + 1] - offsets_[t];
  const auto limit = static_cast<std::int64_t>(std::min(deg_s, deg_t)) + 1;
  const std::int64_t flow = dinic_.max_flow(2 * s + 1, 2 * t, limit);

  // Decompose: path k follows s's k-th last flow arc in neighbor order. An
  // inner vertex has in->out capacity 1, so it carries one unit on exactly
  // one out-arc and no two paths reach it.
  std::vector<Path> paths;
  paths.reserve(static_cast<std::size_t>(flow));
  for (std::uint64_t j = deg_s; j-- > 0;) {
    std::uint32_t arc = out_arc(s, j);
    if (dinic_.flow_on(arc) == 0) continue;
    Path p{s};
    for (NodeId cur = out_arc_head(arc);; cur = out_arc_head(arc)) {
      p.push_back(cur);
      if (cur == t) break;
      std::uint64_t k = offsets_[cur + 1] - offsets_[cur];
      while (dinic_.flow_on(out_arc(cur, --k)) == 0) {
      }
      arc = out_arc(cur, k);
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

void DisjointPathSolver::restore(NodeId s, NodeId t,
                                 std::pair<NodeId, NodeId> forbidden_edge) {
  const auto [fa, fb] = forbidden_edge;
  dinic_.set_arc_capacity(2 * s, 1);
  dinic_.set_arc_capacity(2 * t, 1);
  if (fa != kInvalidNode && fb != kInvalidNode) {
    set_edge_capacity(fa, fb, 1);
    set_edge_capacity(fb, fa, 1);
  }
  dinic_.undo_flow();
}

std::vector<Path> flow_disjoint_paths(const Graph& g, NodeId s, NodeId t,
                                      std::pair<NodeId, NodeId> forbidden_edge) {
  return DisjointPathSolver(g).solve(s, t, forbidden_edge);
}

std::size_t max_path_length(std::span<const Path> paths) {
  std::size_t best = 0;
  for (const Path& p : paths) {
    if (!p.empty()) best = std::max(best, p.size() - 1);
  }
  return best;
}

}  // namespace hbnet
