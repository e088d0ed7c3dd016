// Implicit hyper-butterfly adjacency: HB(m,n) as an AdjacencyProvider whose
// neighborhoods are computed arithmetically from the Cayley generator set
// (m hypercube bit flips plus g, f, g^-1, f^-1), never materialized.
//
// Vertex ids use the same dense index as HyperButterfly::index_of --
// ((cube << n) | word) * n + level -- so results (kappa, BFS distances,
// sweep checkpoint positions) are directly comparable with the CSR path, and
// the cube-permutation orbit reduction below applies to both adjacency
// modes. Memory per instance: O(1); HB(5,4) needs 2048 * 9 / 2 = 9216 CSR
// edge slots materialized, zero here.
#pragma once

#include <cstdint>
#include <string>

#include "graph/adjacency.hpp"

namespace hbnet {

/// The HB(m,n) parameter domain, one check for HyperButterfly and
/// HbImplicitAdjacency: m >= 1, n >= 3, m + n <= 26. Every vertex index
/// n * 2^(m+n) on it stays below 2^31 (the largest is 25 * 2^26). Throws
/// std::invalid_argument outside it.
void check_hb_dimensions(unsigned m, unsigned n);

/// AdjacencyProvider for HB(m,n) backed by generator arithmetic only, on
/// the check_hb_dimensions() domain.
class HbImplicitAdjacency final : public AdjacencyProvider {
 public:
  HbImplicitAdjacency(unsigned m, unsigned n);

  [[nodiscard]] unsigned cube_dimension() const { return m_; }
  [[nodiscard]] unsigned butterfly_dimension() const { return n_; }

  [[nodiscard]] NodeId num_nodes() const override {
    return static_cast<NodeId>(n_) << (m_ + n_);
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return static_cast<std::uint64_t>(m_ + 4) * num_nodes() / 2;
  }
  [[nodiscard]] std::uint32_t degree(NodeId /*v*/) const override {
    return m_ + 4;
  }
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> degree_range()
      const override {
    return {m_ + 4, m_ + 4};
  }

  /// Writes the m+4 neighbors of `v` into `scratch`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(
      NodeId v, NodeId* scratch) const override;

  /// Mode-tagged digest: differs from the CSR fingerprint of the same
  /// instance by design, so a sweep checkpoint records which adjacency mode
  /// produced it and cross-mode resumes restart cleanly.
  [[nodiscard]] std::uint64_t fingerprint() const override;

  [[nodiscard]] std::string describe() const override;

 private:
  unsigned m_, n_;
};

/// Orbit representative of `v` under the cube-bit permutation subgroup of
/// Aut(HB(m,n)): every permutation pi of the m hypercube coordinates maps
/// (c, w, l) -> (pi(c), w, l) and is an automorphism fixing vertex 0, so
/// kappa(0, v) depends on the cube part only through its popcount. The
/// representative keeps (word, level) and canonicalizes the cube part to
/// the low-bits mask of the same popcount -- the minimum index in the
/// orbit. Feed this to SweepOptions::orbit_rep to shrink the single-source
/// target set by a factor of 2^m / (m+1).
[[nodiscard]] NodeId hb_cube_orbit_representative(unsigned m, unsigned n,
                                                  NodeId v);

}  // namespace hbnet
