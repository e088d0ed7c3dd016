#include "core/hyper_butterfly.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "topology/hb_implicit.hpp"

namespace hbnet {

HyperButterfly::HyperButterfly(unsigned m, unsigned n)
    // The domain check runs before any member is built.
    : m_((check_hb_dimensions(m, n), m)), n_(n), cube_(m), bfly_(n) {
  // Theorem 1-2 structural invariants, verified on a bounded vertex sample
  // (checked builds only; see core/validate.hpp).
  HBNET_DCHECK_OK(check::validate(*this));
}

std::vector<HbGen> HyperButterfly::generators() const {
  std::vector<HbGen> gens;
  gens.reserve(m_ + 4);
  for (unsigned i = 0; i < m_; ++i) gens.push_back(HbGen::cube(i));
  for (BflyGen g :
       {BflyGen::kG, BflyGen::kF, BflyGen::kGInv, BflyGen::kFInv}) {
    gens.push_back(HbGen::butterfly(g));
  }
  return gens;
}

HbNode HyperButterfly::apply(HbNode v, const HbGen& gen) const {
  if (gen.is_cube) {
    return {v.cube ^ (CubeWord{1} << gen.cube_bit), v.bfly};
  }
  return {v.cube, bfly_.apply(v.bfly, gen.bfly_gen)};
}

std::vector<HbNode> HyperButterfly::neighbors(HbNode v) const {
  std::vector<HbNode> out;
  out.reserve(m_ + 4);
  for (unsigned i = 0; i < m_; ++i) {
    out.push_back({v.cube ^ (CubeWord{1} << i), v.bfly});
  }
  for (BflyNode b : bfly_.neighbors(v.bfly)) {
    out.push_back({v.cube, b});
  }
  return out;
}

unsigned HyperButterfly::distance(HbNode u, HbNode v) const {
  return Hypercube::distance(u.cube, v.cube) + bfly_.distance(u.bfly, v.bfly);
}

std::vector<HbNode> HyperButterfly::route(HbNode u, HbNode v) const {
  std::vector<HbNode> path{u};
  // Hypercube phase (Section 3, step 1): correct cube bits LSB-first.
  for (CubeWord x : cube_.route(u.cube, v.cube)) {
    if (x != path.back().cube) path.push_back({x, u.bfly});
  }
  // Butterfly phase (step 2).
  for (BflyNode b : bfly_.route_nodes(u.bfly, v.bfly)) {
    if (!(b == path.back().bfly)) path.push_back({v.cube, b});
  }
  return path;
}

std::vector<HbGen> HyperButterfly::route_generators(HbNode u, HbNode v) const {
  std::vector<HbGen> gens;
  CubeWord diff = u.cube ^ v.cube;
  while (diff != 0) {
    unsigned bit = static_cast<unsigned>(std::countr_zero(diff));
    gens.push_back(HbGen::cube(bit));
    diff &= diff - 1;
  }
  for (BflyGen g : bfly_.route(u.bfly, v.bfly)) {
    gens.push_back(HbGen::butterfly(g));
  }
  return gens;
}

CayleySpec HyperButterfly::cayley_spec() const {
  if (num_nodes() > (HbIndex{1} << 31)) {
    throw std::length_error(
        "HyperButterfly::cayley_spec: instance too large to materialize");
  }
  CayleySpec spec;
  spec.num_nodes = static_cast<NodeId>(num_nodes());
  for (unsigned i = 0; i < m_; ++i) {
    spec.generators.push_back(
        {"h" + std::to_string(i), [this, i](NodeId id) -> NodeId {
           return static_cast<NodeId>(
               index_of(apply(node_at(id), HbGen::cube(i))));
         }});
  }
  for (BflyGen g :
       {BflyGen::kG, BflyGen::kF, BflyGen::kGInv, BflyGen::kFInv}) {
    spec.generators.push_back(
        {to_string(g), [this, g](NodeId id) -> NodeId {
           return static_cast<NodeId>(
               index_of(apply(node_at(id), HbGen::butterfly(g))));
         }});
  }
  return spec;
}

Graph HyperButterfly::to_graph() const { return materialize(cayley_spec()); }

}  // namespace hbnet
