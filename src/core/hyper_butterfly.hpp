// The hyper-butterfly network HB(m,n) -- the paper's primary contribution.
//
// HB(m,n) is the product of the hypercube H_m and the wrapped butterfly B_n
// (Definition 3). A vertex carries a hypercube-part label (m bits) and a
// butterfly-part label (word, level); the m+4 generators are the m hypercube
// bit flips h_i plus the four butterfly generators g, f, g^-1, f^-1
// (Remark 3 / Theorem 1). Headline properties implemented and tested here
// and in the sibling core/ files:
//
//   * regular Cayley graph of degree m+4 with n*2^(m+n) vertices and
//     (m+4)*n*2^(m+n-1) edges (Theorems 1-2),
//   * dist((h,b),(h',b')) = hamming(h,h') + dist_B(b,b'), giving trivially
//     optimal two-phase routing (Section 3) and diameter m + ceil(3n/2)
//     (Theorem 3; the butterfly term is measured in tests),
//   * m+4 internally vertex-disjoint paths between any two vertices
//     (Theorem 5) -> maximal fault tolerance (Corollary 1),
//   * fault-tolerant routing with up to m+3 node faults (Remark 10),
//   * embeddings (Section 4) in core/embeddings.hpp,
//   * broadcast (the paper's announced future work) in core/broadcast.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/cayley.hpp"
#include "graph/graph.hpp"
#include "topology/butterfly.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {

/// A hyper-butterfly vertex: hypercube part and butterfly part.
struct HbNode {
  CubeWord cube = 0;
  BflyNode bfly{};
  friend bool operator==(const HbNode&, const HbNode&) = default;
};

/// A generator of HB(m,n): either a hypercube bit flip h_i or one of the
/// four butterfly generators.
struct HbGen {
  bool is_cube = false;
  unsigned cube_bit = 0;        // valid when is_cube
  BflyGen bfly_gen = BflyGen::kG;  // valid when !is_cube

  static HbGen cube(unsigned bit) { return {true, bit, BflyGen::kG}; }
  static HbGen butterfly(BflyGen g) { return {false, 0, g}; }
};

/// Dense 64-bit index of an HB vertex (for sets/maps on large instances).
using HbIndex = std::uint64_t;

/// Immutable once constructed: every const method may be called from
/// several threads on one shared instance.
class HyperButterfly {
 public:
  /// Constructs HB(m,n) on the check_hb_dimensions() domain (m >= 1,
  /// n >= 3, m + n <= 26); throws std::invalid_argument outside it.
  HyperButterfly(unsigned m, unsigned n);

  [[nodiscard]] unsigned cube_dimension() const { return m_; }
  [[nodiscard]] unsigned butterfly_dimension() const { return n_; }
  [[nodiscard]] const Hypercube& hypercube() const { return cube_; }
  [[nodiscard]] const Butterfly& butterfly() const { return bfly_; }

  /// n * 2^(m+n) vertices (Theorem 2).
  [[nodiscard]] HbIndex num_nodes() const {
    return static_cast<HbIndex>(n_) << (m_ + n_);
  }
  /// (m+4) * n * 2^(m+n-1) edges (Theorem 2).
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(m_ + 4) * num_nodes() / 2;
  }
  /// Degree of every vertex: m + 4.
  [[nodiscard]] unsigned degree() const { return m_ + 4; }

  /// Theorem 3: m + ceil(3n/2). See EXPERIMENTS.md for the measured value.
  [[nodiscard]] unsigned diameter_formula() const {
    return m_ + (3 * n_ + 1) / 2;
  }

  /// The m+4 generators: h_0..h_{m-1}, then g, f, g^-1, f^-1.
  [[nodiscard]] std::vector<HbGen> generators() const;

  /// Applies a generator.
  [[nodiscard]] HbNode apply(HbNode v, const HbGen& gen) const;

  /// All m+4 neighbors, in generator order.
  [[nodiscard]] std::vector<HbNode> neighbors(HbNode v) const;

  /// Exact shortest-path distance (Remark 8): cube Hamming distance plus
  /// butterfly covering-walk distance.
  [[nodiscard]] unsigned distance(HbNode u, HbNode v) const;

  /// Optimal two-phase route (Section 3): hypercube phase then butterfly
  /// phase. Returns the full vertex sequence [u, ..., v].
  [[nodiscard]] std::vector<HbNode> route(HbNode u, HbNode v) const;

  /// Same route as a generator sequence.
  [[nodiscard]] std::vector<HbGen> route_generators(HbNode u, HbNode v) const;

  /// Theorem 5: m+4 internally vertex-disjoint u-v paths (u != v).
  /// Implemented in core/disjoint_paths.cpp; see that file for the
  /// construction and its degenerate-case handling. Safe to call from
  /// several threads on one instance: the butterfly-layer flow network it
  /// solves on is per thread.
  [[nodiscard]] std::vector<std::vector<HbNode>> disjoint_paths(
      HbNode u, HbNode v) const;

  /// Dense index: ((cube << n) | word) * n + level.
  [[nodiscard]] HbIndex index_of(HbNode v) const {
    return ((static_cast<HbIndex>(v.cube) << n_) | v.bfly.word) * n_ +
           v.bfly.level;
  }
  [[nodiscard]] HbNode node_at(HbIndex id) const {
    auto level = static_cast<std::uint32_t>(id % n_);
    HbIndex wc = id / n_;
    return {static_cast<CubeWord>(wc >> n_),
            {static_cast<std::uint32_t>(wc & ((HbIndex{1} << n_) - 1)), level}};
  }
  /// True iff the vertex is valid for this instance.
  [[nodiscard]] bool contains(HbNode v) const {
    return v.cube < (CubeWord{1} << m_) && v.bfly.word < (1u << n_) &&
           v.bfly.level < n_;
  }

  /// Cayley-graph view (Theorem 1).
  [[nodiscard]] CayleySpec cayley_spec() const;

  /// Materialized CSR graph. Throws if num_nodes() exceeds 2^31 (use the
  /// implicit interface for larger instances).
  [[nodiscard]] Graph to_graph() const;

 private:
  unsigned m_, n_;
  Hypercube cube_;
  Butterfly bfly_;
};

/// Result of sweeping the Theorem-5 construction over vertex pairs.
struct DisjointPathsAudit {
  bool ok = true;
  std::uint64_t pairs_checked = 0;  // == all ordered pairs when ok
  std::string error;  // lowest-pair-index violation when !ok, else empty
};

/// Verifies Theorem 5 operationally: for every ordered pair (u, v) of
/// distinct vertices, constructs the m+4 disjoint paths and validates them
/// against the materialized graph (count, endpoints, edges, internal
/// disjointness). The pair sweep runs on the hbnet::par pool (`threads`;
/// 0 = par::default_threads()); the reported violation, if any, is the one
/// with the lowest pair index, so the outcome is thread-count independent.
/// Implemented in core/disjoint_paths.cpp.
[[nodiscard]] DisjointPathsAudit audit_disjoint_paths(const HyperButterfly& hb,
                                                      unsigned threads = 0);

}  // namespace hbnet
