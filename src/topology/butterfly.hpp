// The wrapped butterfly B_n (Section 2.1 of the paper), in both of the
// paper's vertex representations:
//
//  1. Classic: a vertex is <z, l> with an n-bit word z and a level
//     l in [0, n); <z,l> ~ <z',l'> iff l' = l+-1 (mod n) and z' equals z
//     except possibly at one level-determined bit.
//  2. Cayley (Vadapalli & Srimani): a vertex is a cyclic permutation of n
//     symbols t_1..t_n in lexicographic order, each possibly complemented,
//     identified by its permutation index PI (number of left shifts from the
//     identity) and complementation index CI.
//
// We store a vertex canonically as (w, l): l = PI, and bit k of w = the
// complementation status of *symbol* t_{k+1} (not of position k). In these
// coordinates the four generators act as
//     g   : (w, l) -> (w,              l+1 mod n)
//     f   : (w, l) -> (w ^ 2^l,        l+1 mod n)
//     g^-1: (w, l) -> (w,              l-1 mod n)
//     f^-1: (w, l) -> (w ^ 2^(l-1 mod n), l-1 mod n)
// so cross edges over the level-cycle edge {k, k+1 mod n} flip word bit k --
// which is exactly the classic representation with z = w. The two paper
// representations are therefore literally the same object here; the
// label/PI/CI conversions are provided for completeness and tested as the
// isomorphism of Remark 2.
//
// Shortest routing: a route from (w,l) to (w',l') is a walk on the level
// cycle Z_n from l to l' traversing cycle edge k at least once for every bit
// k set in w^w'. plan_covering_walk solves that covering-walk problem
// exactly in O(n) by lifting to the integer line, giving the true distance
// as three monotone runs; covering_walk_step turns each unit step of the
// walk into a generator (flipping on the first crossing of a required
// edge). Butterfly::route and the sharded simulator's per-hop router both
// walk a plan with that one step rule. CCC routing (topology/ccc.hpp) uses
// the vertex-visiting variant, plan_visiting_walk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/cayley.hpp"
#include "graph/graph.hpp"

namespace hbnet {

/// A wrapped-butterfly vertex: word (symbol complement mask) and level (PI).
struct BflyNode {
  std::uint32_t word = 0;
  std::uint32_t level = 0;
  friend bool operator==(const BflyNode&, const BflyNode&) = default;
};

/// The four butterfly generators, in the paper's notation. The order is
/// relied on: +2 turns an upward generator into its downward counterpart,
/// +1 a plain generator into its flipping one.
enum class BflyGen : std::uint8_t { kG, kF, kGInv, kFInv };

/// Returns the paper name of a generator ("g", "f", "g-1", "f-1").
[[nodiscard]] const char* to_string(BflyGen gen);

/// A minimum walk on the level cycle Z_n in closed form: lifted to the
/// integer line anchored at `start`, an optimal walk visits the interval
/// [-down, up] and ends at offset tau, sweeping to one extreme first and
/// then the other. That is three monotone runs -- run(i) unit steps in
/// direction dir(i) = -+dir(0) -- so a packet can carry the whole remaining
/// route in a few bytes and advance it in O(1) per hop.
struct CoveringWalkPlan {
  std::uint8_t up = 0;       // right extreme of the lifted interval
  std::uint8_t down = 0;     // left extreme (as a magnitude)
  std::int8_t tau = 0;       // final offset, tau == end - start (mod n)
  bool left_first = false;   // sweep to -down before +up
  [[nodiscard]] unsigned length() const {
    const int t = left_first ? -tau : tau;
    return static_cast<unsigned>(2 * (int{up} + int{down}) + t);
  }
  /// Steps per monotone run, in traversal order.
  [[nodiscard]] unsigned run(unsigned i) const {
    const int c = up, d = down;
    const int steps = left_first ? (i == 0 ? d : i == 1 ? d + c : c - tau)
                                 : (i == 0 ? c : i == 1 ? c + d : tau + d);
    return static_cast<unsigned>(steps);
  }
  /// Direction of run i (+1 = clockwise / g-direction).
  [[nodiscard]] int dir(unsigned i) const {
    const int first = left_first ? -1 : 1;
    return i == 1 ? -first : first;
  }
};

/// Minimum-length walk on Z_n from `start` to `end` traversing every cycle
/// edge k (joining levels k and k+1 mod n) with bit k set in `required`.
/// Exact, O(n); the butterfly and hyper-butterfly router. Throws
/// std::invalid_argument unless start, end < n <= 64.
[[nodiscard]] CoveringWalkPlan plan_covering_walk(unsigned n, unsigned start,
                                                  unsigned end,
                                                  std::uint64_t required);

/// Minimum-length walk on Z_n from `start` to `end` that visits every
/// position k with bit k set in `required` (the CCC router). Same planner:
/// a right sweep to offset c visits positions up to c but covers only the
/// edges below c, so the right extreme reaches one residue further.
[[nodiscard]] CoveringWalkPlan plan_visiting_walk(unsigned n, unsigned start,
                                                  unsigned end,
                                                  std::uint64_t required);

/// One unit step of a butterfly route along a covering walk: moves `cur`
/// one level in direction `dir` (+1 = g-direction) and returns the
/// generator taken. An upward step crosses cycle edge cur.level, a downward
/// step crosses (cur.level - 1) mod n; on the first crossing of an edge
/// whose bit is still set in `word_diff` it takes the flipping generator
/// (f / f^-1) and clears that bit. Division-free (level wraps are
/// compares): the sharded simulator runs it once per packet hop.
[[nodiscard]] inline BflyGen covering_walk_step(unsigned n, int dir,
                                                BflyNode& cur,
                                                std::uint32_t& word_diff) {
  const std::uint32_t lvl = cur.level;
  const std::uint32_t down = lvl == 0 ? n - 1 : lvl - 1;
  const std::uint32_t edge = dir > 0 ? lvl : down;
  const std::uint32_t flip = word_diff & (1u << edge);
  word_diff ^= flip;
  cur.word ^= flip;
  cur.level = dir > 0 ? (lvl + 1 == n ? 0 : lvl + 1) : down;
  return static_cast<BflyGen>((dir > 0 ? 0 : 2) + (flip != 0 ? 1 : 0));
}

class Butterfly {
 public:
  /// Constructs B_n; the Cayley representation requires n >= 3 (Remark 1),
  /// n <= 26 keeps words in 32 bits with room for products.
  explicit Butterfly(unsigned n);

  [[nodiscard]] unsigned dimension() const { return n_; }
  [[nodiscard]] NodeId num_nodes() const { return n_ << n_; }
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(n_) << (n_ + 1);
  }
  [[nodiscard]] static constexpr unsigned degree() { return 4; }

  /// floor(3n/2): the diameter claimed in Remark 1. (Theorem 3 uses
  /// ceil(3n/2); tests pin the measured value, see EXPERIMENTS.md.)
  [[nodiscard]] unsigned diameter_formula() const { return 3 * n_ / 2; }

  /// Applies a generator to a vertex.
  [[nodiscard]] BflyNode apply(BflyNode v, BflyGen gen) const;

  /// All four neighbors, in order g, f, g^-1, f^-1.
  [[nodiscard]] std::vector<BflyNode> neighbors(BflyNode v) const;

  /// Exact shortest-path distance: the planned covering walk's length.
  [[nodiscard]] unsigned distance(BflyNode u, BflyNode v) const;

  /// One optimal route as a generator sequence: the planned covering walk,
  /// stepped with covering_walk_step.
  [[nodiscard]] std::vector<BflyGen> route(BflyNode u, BflyNode v) const;

  /// One optimal route as the full vertex sequence [u, ..., v].
  [[nodiscard]] std::vector<BflyNode> route_nodes(BflyNode u, BflyNode v) const;

  /// Dense index of a vertex: word * n + level.
  [[nodiscard]] NodeId index_of(BflyNode v) const {
    return static_cast<NodeId>(v.word) * n_ + v.level;
  }
  [[nodiscard]] BflyNode node_at(NodeId id) const {
    return {static_cast<std::uint32_t>(id / n_),
            static_cast<std::uint32_t>(id % n_)};
  }

  // --- Cayley-label view (Remark 2 isomorphism) -------------------------

  /// The symbol label of `v` as the paper writes it: n characters
  /// 'a','b','c',... (symbol t_1 = 'a'), uppercase = complemented, in
  /// left-to-right label order a_1 a_2 ... a_n.
  [[nodiscard]] std::string label(BflyNode v) const;

  /// Parses a label produced by label(); inverse of the above.
  [[nodiscard]] BflyNode from_label(const std::string& s) const;

  /// Permutation index (Definition 1) -- equals v.level.
  [[nodiscard]] unsigned permutation_index(BflyNode v) const { return v.level; }

  /// Complementation index (Definition 2): sum of w_j 2^(j-1) where w_j is
  /// the complementation bit of the j-th *label position*. Equals v.word
  /// rotated left by PI.
  [[nodiscard]] std::uint32_t complementation_index(BflyNode v) const;

  // --- Embedded structures ---------------------------------------------

  /// A cycle of length k*n + 2*k' (k >= 1, k' >= 0, k + k' <= 2^n) as a
  /// vertex sequence; the cycle family of Remark 9 / reference [7].
  [[nodiscard]] std::vector<BflyNode> cycle(unsigned k, unsigned k_prime) const;

  /// The natural complete binary tree of height n rooted at (root_word, 0):
  /// level d of the tree lives at butterfly level d; children follow g and f.
  /// Returns the 2^(n+1)-1 vertices in BFS order... but note levels wrap:
  /// valid as a subgraph tree only for depth <= n; this returns the T(n)
  /// witness (depth n-1 internal + leaves at level n-1->0 wrap excluded),
  /// see embeddings.cpp for the precise statement tested.
  [[nodiscard]] std::vector<BflyNode> natural_tree(std::uint32_t root_word,
                                                   unsigned depth) const;

  /// Cayley-graph view (Theorem 1 building block).
  [[nodiscard]] CayleySpec cayley_spec() const;

  /// Materialized CSR graph (word-major indexing via index_of()).
  [[nodiscard]] Graph to_graph() const;

 private:
  unsigned n_;
};

}  // namespace hbnet
