// Fault-tolerant routing in HB(m,n) (Remark 10 of the paper).
//
// Because HB(m,n) has m+4 internally vertex-disjoint paths between every
// vertex pair (Theorem 5) and is (m+4)-regular, it tolerates any m+3 node
// faults: at least one of the constructed disjoint paths is fault free.
// route_around_faults() materializes the Theorem-5 family and returns the
// shortest fault-free member; this is the paper's "optimal routing scheme in
// the presence of maximal number of allowable faults". A BFS reference
// (hb_bfs_path with faults) is available for cross-checking optimality and
// for fault sets beyond the guarantee.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "core/routing.hpp"

namespace hbnet {

namespace obs {
class Sink;
}

/// Statistics of a fault-routing attempt.
struct FaultRouteResult {
  std::vector<HbNode> path;      // empty when no path was found
  unsigned paths_tried = 0;      // disjoint paths inspected
  bool used_fallback = false;    // true if BFS fallback produced the path
  [[nodiscard]] bool ok() const { return !path.empty(); }
};

/// Routes u -> v avoiding `faults` using the Theorem-5 disjoint-path family;
/// picks the shortest fault-free family member. If every family member is
/// blocked (only possible when |faults| > m+3 or endpoints are faulty) and
/// `bfs_fallback` is set, falls back to BFS on the implicit fault-free graph.
/// A non-null `sink` accumulates attempt/paths-tried/fallback counters and
/// emits one instant trace event per routing decision.
[[nodiscard]] FaultRouteResult route_around_faults(const HyperButterfly& hb,
                                                   HbNode u, HbNode v,
                                                   const HbFaultSet& faults,
                                                   bool bfs_fallback = true,
                                                   obs::Sink* sink = nullptr);

/// Like route_around_faults, but additionally refuses any family member whose
/// first hop is a node in `banned_first` — the online wormhole router uses
/// this to avoid faulted *links* out of u that are not node faults. Because
/// the Theorem-5 family is internally vertex-disjoint, at most one member
/// leaves u through any given first edge, so each banned link costs at most
/// one candidate and the m+4-wide family still guarantees a survivor while
/// |node faults| + |banned links| <= m+3. Family-only: the BFS reference
/// cannot honor per-edge bans, so there is no fallback.
///
/// Node faults come as a dense mask indexed by HyperButterfly::index_of
/// (nonzero = faulty; nodes past its end are healthy), the form the
/// simulators keep, so a call builds no fault set. With no bans the result
/// is the bfs_fallback = false result of the overload above for the same
/// faults.
[[nodiscard]] FaultRouteResult route_around_faults(
    const HyperButterfly& hb, HbNode u, HbNode v, std::span<const char> faulty,
    const std::vector<HbNode>& banned_first, obs::Sink* sink = nullptr);

}  // namespace hbnet
