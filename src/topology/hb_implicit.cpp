#include "topology/hb_implicit.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace hbnet {

void check_hb_dimensions(unsigned m, unsigned n) {
  if (m < 1 || n < 3 || std::uint64_t{m} + n > 26) {
    throw std::invalid_argument(
        "HB(m,n): need m >= 1, n >= 3, m + n <= 26 (got m=" +
        std::to_string(m) + ", n=" + std::to_string(n) + ")");
  }
}

HbImplicitAdjacency::HbImplicitAdjacency(unsigned m, unsigned n)
    : m_(m), n_(n) {
  check_hb_dimensions(m, n);
}

std::span<const NodeId> HbImplicitAdjacency::neighbors(NodeId v,
                                                       NodeId* scratch) const {
  // Decode ((cube << n) | word) * n + level.
  const std::uint32_t level = v % n_;
  const NodeId wc = v / n_;
  const std::uint32_t word = wc & ((NodeId{1} << n_) - 1);
  const std::uint32_t cube = wc >> n_;

  const NodeId base = (NodeId{cube} << n_) | word;
  const std::uint32_t up = level + 1 == n_ ? 0 : level + 1;
  const std::uint32_t down = level == 0 ? n_ - 1 : level - 1;
  unsigned count = 0;
  // Hypercube flips h_i keep (word, level).
  for (unsigned i = 0; i < m_; ++i) {
    scratch[count++] = ((base ^ (NodeId{1} << (n_ + i))) * n_) + level;
  }
  // g: level+1, word unchanged; f: level+1, flip word bit `level`;
  // g^-1: level-1, word unchanged; f^-1: level-1, flip word bit level-1.
  scratch[count++] = base * n_ + up;
  scratch[count++] = (base ^ (NodeId{1} << level)) * n_ + up;
  scratch[count++] = base * n_ + down;
  scratch[count++] = (base ^ (NodeId{1} << down)) * n_ + down;

  // Theorem 1's distinct-action audit guarantees the m+4 images are
  // pairwise distinct for n >= 3; insertion sort restores the CSR
  // sorted-ascending contract.
  for (unsigned i = 1; i < count; ++i) {
    const NodeId x = scratch[i];
    unsigned j = i;
    for (; j > 0 && scratch[j - 1] > x; --j) scratch[j] = scratch[j - 1];
    scratch[j] = x;
  }
  return {scratch, count};
}

std::uint64_t HbImplicitAdjacency::fingerprint() const {
  std::uint64_t h = detail::kFnv1aBasis;
  detail::fnv1a_mix(h, 0x4842494d504c4349ull);  // mode tag: "HBIMPLCI"
  detail::fnv1a_mix(h, m_);
  detail::fnv1a_mix(h, n_);
  detail::fnv1a_mix(h, num_nodes());
  detail::fnv1a_mix(h, num_edges());
  return h;
}

std::string HbImplicitAdjacency::describe() const {
  return "hb-implicit(" + std::to_string(m_) + "," + std::to_string(n_) + ")";
}

NodeId hb_cube_orbit_representative(unsigned m, unsigned n, NodeId v) {
  const NodeId per_cube = static_cast<NodeId>(n) << n;  // n * 2^n indices
  const NodeId cube = v / per_cube;
  const NodeId rest = v % per_cube;
  const int weight = std::popcount(cube);
  (void)m;
  const NodeId rep_cube = (NodeId{1} << weight) - 1;  // low-bits mask
  return rep_cube * per_cube + rest;
}

}  // namespace hbnet
