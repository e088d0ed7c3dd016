// Simulator-facing topology adapters.
//
// The packet simulator (sim/simulator.hpp) is topology agnostic: it source-
// routes packets over any SimTopology. Adapters wrap the four networks the
// paper compares (hypercube, wrapped butterfly, hyper-deBruijn,
// hyper-butterfly) and expose each network's *own* routing algorithm -- not
// BFS -- so the simulation exercises the algorithms the paper describes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_routing.hpp"
#include "core/hyper_butterfly.hpp"
#include "topology/butterfly.hpp"
#include "topology/debruijn.hpp"
#include "topology/hyper_debruijn.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {

/// Outcome of a SimTopology::route_avoiding request. The simulators must
/// distinguish "dropped by design: the faults really cut off this pair"
/// (kNoPath) from "misconfigured run: the adapter has no fault-tolerant
/// algorithm at all" (kUnsupported) — the two outcomes are counted under
/// distinct metrics (sim.dropped_unroutable vs sim.dropped_unsupported).
enum class FaultRouteStatus {
  kOk,           // a path on the fault-free subnetwork was found
  kNoPath,       // the adapter has fault routing, but no route survives
  kUnsupported,  // the adapter has no fault-tolerant algorithm
};

/// Result of SimTopology::route_avoiding.
struct SimFaultRoute {
  FaultRouteStatus status = FaultRouteStatus::kUnsupported;
  std::vector<std::uint32_t> path;  // non-empty iff status == kOk
  [[nodiscard]] bool ok() const { return status == FaultRouteStatus::kOk; }
};

/// Abstract network as seen by the simulator. Node ids are dense.
class SimTopology {
 public:
  virtual ~SimTopology() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t num_nodes() const = 0;
  [[nodiscard]] virtual unsigned degree_hint() const = 0;
  /// Full route src -> dst (inclusive) using the network's own algorithm.
  [[nodiscard]] virtual std::vector<std::uint32_t> route(
      std::uint32_t src, std::uint32_t dst) const = 0;
  /// Neighbors of `v` in the network's deterministic (generator/dimension)
  /// order; empty when the adapter does not expose adjacency. Used to derive
  /// link fault sets and by the online wormhole router's tests.
  [[nodiscard]] virtual std::vector<std::uint32_t> neighbors(
      std::uint32_t v) const {
    (void)v;
    return {};
  }
  /// Route src -> dst avoiding every node marked in `faulty` (indexed by
  /// node id; may be shorter than num_nodes() — unmarked means healthy) and
  /// never leaving src through an edge src -> b for b in `banned_first_hops`
  /// (faulted outgoing *links* an online router has discovered). Default:
  /// kUnsupported.
  [[nodiscard]] virtual SimFaultRoute route_avoiding(
      std::uint32_t src, std::uint32_t dst, const std::vector<char>& faulty,
      const std::vector<std::uint32_t>& banned_first_hops) const {
    (void)src;
    (void)dst;
    (void)faulty;
    (void)banned_first_hops;
    return {};
  }
  /// Convenience overload without link bans.
  [[nodiscard]] SimFaultRoute route_avoiding(
      std::uint32_t src, std::uint32_t dst,
      const std::vector<char>& faulty) const {
    return route_avoiding(src, dst, faulty, {});
  }
};

/// Hypercube H_m with greedy bit-correction routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_hypercube_sim(unsigned m);

/// Wrapped butterfly B_n with exact covering-walk routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_butterfly_sim(unsigned n);

/// Cube-connected cycles CCC(n) with exact visiting-walk routing
/// (extended baseline, degree 3).
[[nodiscard]] std::unique_ptr<SimTopology> make_ccc_sim(unsigned n);

/// Hyper-deBruijn HD(m,n) with dimension-ordered cube+shift routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_hyper_debruijn_sim(unsigned m,
                                                                   unsigned n);

/// Hyper-butterfly HB(m,n) with the paper's two-phase optimal routing and
/// Theorem-5-based fault-tolerant routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_hyper_butterfly_sim(
    unsigned m, unsigned n);

}  // namespace hbnet
