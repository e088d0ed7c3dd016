#include "topology/butterfly.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace hbnet {
namespace {

/// Rotate an n-bit word right by r (0 <= r < n).
std::uint32_t rotr_n(std::uint32_t w, unsigned r, unsigned n) {
  if (r == 0) return w;
  const std::uint32_t mask = (n == 32) ? ~0u : ((1u << n) - 1);
  return ((w >> r) | (w << (n - r))) & mask;
}

/// The one level-cycle walk planner. Lift Z_n to the integer line anchored
/// at `start` (offset 0): a walk's trace is an interval [-d, +c] and it ends
/// at an offset tau == end - start (mod n). A minimum walk for a fixed
/// interval and tau goes to one extreme, sweeps to the other and backtracks
/// to tau, costing 2(c+d) - tau (left extreme first) or 2(c+d) + tau (right
/// extreme first). Required residue r (relative to start) is served iff
/// r < c + reach or r >= n - d: an edge at offset p joins p and p+1, so the
/// right sweep covers edges r < c (reach 0), but visits positions r <= c
/// (reach 1); on the wrapped side both need -d <= r - n.
///
/// For a fixed c, coverage pins the minimum left extreme d(c) = n - (the
/// smallest required residue >= c + reach), or 0 when there is none. The
/// cost is monotone in d, so only d(c) -- bumped to n - delta when
/// tau = delta - n needs the deeper left extreme -- can be optimal, and
/// c > n adds cost without coverage: O(n) candidates in all.
CoveringWalkPlan plan_walk(unsigned n, unsigned start, unsigned end,
                           std::uint64_t required, int reach) {
  if (n > 64 || start >= n || end >= n) {
    throw std::invalid_argument(
        "level-cycle walk: need start, end < n <= 64");
  }
  const int ni = static_cast<int>(n);
  const int delta =
      ((static_cast<int>(end) - static_cast<int>(start)) % ni + ni) % ni;

  // suffix_min[c] = smallest required residue >= c, or n when there is none.
  std::array<int, 65> suffix_min{};
  suffix_min[n] = ni;
  for (int c = ni - 1; c >= 0; --c) {
    const unsigned k = (start + static_cast<unsigned>(c)) % n;
    suffix_min[c] = ((required >> k) & 1) ? c : suffix_min[c + 1];
  }

  int best_cost = std::numeric_limits<int>::max();
  CoveringWalkPlan best;
  auto consider = [&](int c, int d, int tau) {
    if (d > ni || tau < -d || tau > c) return;
    for (const bool left_first : {true, false}) {
      const int cost = 2 * (c + d) + (left_first ? -tau : tau);
      if (cost < best_cost) {
        best_cost = cost;
        best = {static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d),
                static_cast<std::int8_t>(tau), left_first};
      }
    }
  };
  for (int c = 0; c <= ni; ++c) {
    const int unserved = suffix_min[std::min(c + reach, ni)];
    const int d_min = unserved == ni ? 0 : ni - unserved;
    consider(c, d_min, delta);
    consider(c, std::max(d_min, ni - delta), delta - ni);
    if (c == ni && delta == 0) consider(c, d_min, ni);
  }
  return best;
}

}  // namespace

const char* to_string(BflyGen gen) {
  switch (gen) {
    case BflyGen::kG:
      return "g";
    case BflyGen::kF:
      return "f";
    case BflyGen::kGInv:
      return "g-1";
    case BflyGen::kFInv:
      return "f-1";
  }
  return "?";
}

CoveringWalkPlan plan_covering_walk(unsigned n, unsigned start, unsigned end,
                                    std::uint64_t required) {
  return plan_walk(n, start, end, required, 0);
}

CoveringWalkPlan plan_visiting_walk(unsigned n, unsigned start, unsigned end,
                                    std::uint64_t required) {
  return plan_walk(n, start, end, required, 1);
}

Butterfly::Butterfly(unsigned n) : n_(n) {
  if (n < 3 || n > 26) {
    throw std::invalid_argument("Butterfly: dimension must be in [3,26], got " +
                                std::to_string(n));
  }
}

BflyNode Butterfly::apply(BflyNode v, BflyGen gen) const {
  const unsigned n = n_;
  switch (gen) {
    case BflyGen::kG:
      return {v.word, (v.level + 1) % n};
    case BflyGen::kF:
      return {v.word ^ (1u << v.level), (v.level + 1) % n};
    case BflyGen::kGInv:
      return {v.word, (v.level + n - 1) % n};
    case BflyGen::kFInv: {
      unsigned down = (v.level + n - 1) % n;
      return {v.word ^ (1u << down), down};
    }
  }
  return v;  // unreachable
}

std::vector<BflyNode> Butterfly::neighbors(BflyNode v) const {
  return {apply(v, BflyGen::kG), apply(v, BflyGen::kF),
          apply(v, BflyGen::kGInv), apply(v, BflyGen::kFInv)};
}

unsigned Butterfly::distance(BflyNode u, BflyNode v) const {
  return plan_covering_walk(n_, u.level, v.level, u.word ^ v.word).length();
}

std::vector<BflyGen> Butterfly::route(BflyNode u, BflyNode v) const {
  std::uint32_t word_diff = u.word ^ v.word;
  const CoveringWalkPlan plan =
      plan_covering_walk(n_, u.level, v.level, word_diff);
  std::vector<BflyGen> gens;
  gens.reserve(plan.length());
  BflyNode cur = u;
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned k = plan.run(i); k > 0; --k) {
      gens.push_back(covering_walk_step(n_, plan.dir(i), cur, word_diff));
    }
  }
  if (!(cur == v)) {
    throw std::logic_error("Butterfly::route: internal routing error");
  }
  return gens;
}

std::vector<BflyNode> Butterfly::route_nodes(BflyNode u, BflyNode v) const {
  std::vector<BflyNode> nodes{u};
  BflyNode cur = u;
  for (BflyGen gen : route(u, v)) {
    cur = apply(cur, gen);
    nodes.push_back(cur);
  }
  return nodes;
}

std::string Butterfly::label(BflyNode v) const {
  // Label position j (1-based) holds symbol t_{s+1} with s = (level+j-1) mod n;
  // uppercase marks a complemented symbol (bit s of word set).
  std::string out;
  out.reserve(n_);
  for (unsigned j = 0; j < n_; ++j) {
    unsigned s = (v.level + j) % n_;
    char base = static_cast<char>('a' + s);
    bool complemented = (v.word >> s) & 1;
    out.push_back(complemented ? static_cast<char>(base - 'a' + 'A') : base);
  }
  return out;
}

BflyNode Butterfly::from_label(const std::string& s) const {
  if (s.size() != n_) {
    throw std::invalid_argument("Butterfly::from_label: wrong length");
  }
  BflyNode v{0, 0};
  // First character identifies the front symbol, hence the level (PI).
  char front = s[0];
  unsigned front_sym = static_cast<unsigned>(
      (front >= 'a') ? front - 'a' : front - 'A');
  v.level = front_sym % n_;
  for (unsigned j = 0; j < n_; ++j) {
    char ch = s[j];
    bool complemented = (ch >= 'A' && ch <= 'Z');
    unsigned sym = static_cast<unsigned>(complemented ? ch - 'A' : ch - 'a');
    unsigned expect = (v.level + j) % n_;
    if (sym != expect) {
      throw std::invalid_argument(
          "Butterfly::from_label: not a cyclic permutation in lexicographic "
          "order");
    }
    if (complemented) v.word |= 1u << sym;
  }
  return v;
}

std::uint32_t Butterfly::complementation_index(BflyNode v) const {
  // CI bit (j-1) is the complementation status of label position j, i.e.
  // word bit (level + j - 1) mod n: CI = word rotated right by level.
  return rotr_n(v.word, v.level, n_);
}

std::vector<BflyNode> Butterfly::cycle(unsigned k, unsigned k_prime) const {
  // Base cycle of length k*n via the binary-counter schedule: rounds are the
  // words 0..k-1; crossing level l in round r applies f iff incrementing r
  // flips bit l (i.e. bits 0..l-1 of r are all ones), where the last round
  // wraps k-1 -> 0 and flips exactly the set bits of k-1. The word seen at
  // level l in round r is then (bits < l of r+1, bits >= l of r), which is
  // injective in r for every l -- so all k*n vertices are distinct
  // (Hamiltonian for k = 2^n).
  if (k < 1 || static_cast<std::uint64_t>(k) + k_prime > (1ull << n_)) {
    throw std::invalid_argument("Butterfly::cycle: need 1 <= k, k+k' <= 2^n");
  }
  if (k == 1 && k_prime == 0 && n_ < 3) {
    throw std::invalid_argument("Butterfly::cycle: length < 3");
  }
  std::vector<BflyNode> nodes;
  nodes.reserve(static_cast<std::size_t>(k) * n_ + 2 * k_prime);
  for (std::uint32_t r = 0; r < k; ++r) {
    std::uint32_t next = (r + 1 == k) ? 0 : r + 1;
    std::uint32_t flips = r ^ next;  // bits to flip this round
    std::uint32_t w = r;
    for (unsigned l = 0; l < n_; ++l) {
      nodes.push_back({w, l});
      if ((flips >> l) & 1) w ^= 1u << l;
    }
  }
  if (k_prime == 0) return nodes;

  // Bounce insertion: a g-step (w,l) -> (w,l+1) becomes the 3-step detour
  // f, g^-1, f: (w,l) -> (x,l+1) -> (x,l) -> (w,l+1) with x = w ^ 2^l,
  // adding 2 new vertices (x,l+1), (x,l). Insert greedily wherever both are
  // unused. Every insertion is validated; tests check the resulting cycle.
  auto key = [this](BflyNode v) {
    return static_cast<std::uint64_t>(v.word) * n_ + v.level;
  };
  std::unordered_set<std::uint64_t> used;
  used.reserve(nodes.size() * 2);
  for (BflyNode v : nodes) used.insert(key(v));

  std::vector<BflyNode> out;
  out.reserve(nodes.size() + 2 * k_prime);
  unsigned remaining = k_prime;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    BflyNode cur = nodes[i];
    out.push_back(cur);
    if (remaining == 0) continue;
    BflyNode nxt = nodes[(i + 1) % nodes.size()];
    // Detect a plain g-step upward.
    bool is_g_step =
        nxt.word == cur.word && nxt.level == (cur.level + 1) % n_;
    if (!is_g_step) continue;
    BflyNode a{cur.word ^ (1u << cur.level), (cur.level + 1) % n_};
    BflyNode b{a.word, cur.level};
    if (used.count(key(a)) || used.count(key(b))) continue;
    used.insert(key(a));
    used.insert(key(b));
    out.push_back(a);
    out.push_back(b);
    --remaining;
  }
  if (remaining != 0) {
    throw std::runtime_error(
        "Butterfly::cycle: could not place all bounce detours for k'=" +
        std::to_string(k_prime));
  }
  return out;
}

std::vector<BflyNode> Butterfly::natural_tree(std::uint32_t root_word,
                                              unsigned depth) const {
  // The natural butterfly tree: root (root_word, 0); the children of a node
  // at tree depth d (butterfly level d) are its g and f images. For
  // depth <= n-1 all vertices are distinct: depth-d nodes are
  // (root_word ^ s, d) with s ranging over subsets of bits 0..d-1.
  if (depth > n_ - 1) {
    throw std::invalid_argument(
        "Butterfly::natural_tree: depth must be <= n-1 (levels wrap beyond)");
  }
  std::vector<BflyNode> bfs_order;
  bfs_order.reserve((2u << depth) - 1);
  bfs_order.push_back({root_word, 0});
  for (std::size_t i = 0; bfs_order.size() < (2u << depth) - 1; ++i) {
    BflyNode v = bfs_order[i];
    bfs_order.push_back(apply(v, BflyGen::kG));
    bfs_order.push_back(apply(v, BflyGen::kF));
  }
  return bfs_order;
}

CayleySpec Butterfly::cayley_spec() const {
  CayleySpec spec;
  spec.num_nodes = num_nodes();
  auto lift = [this](BflyGen gen) {
    return [this, gen](NodeId id) -> NodeId {
      return index_of(apply(node_at(id), gen));
    };
  };
  spec.generators.push_back({"g", lift(BflyGen::kG)});
  spec.generators.push_back({"f", lift(BflyGen::kF)});
  spec.generators.push_back({"g-1", lift(BflyGen::kGInv)});
  spec.generators.push_back({"f-1", lift(BflyGen::kFInv)});
  return spec;
}

Graph Butterfly::to_graph() const { return materialize(cayley_spec()); }

}  // namespace hbnet
