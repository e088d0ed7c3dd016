// Synchronous source-routed store-and-forward packet simulator.
//
// Model (deliberately simple and deterministic -- the paper's claims are
// about path structure, not microarchitecture):
//  * packets are source routed with the topology's own algorithm at
//    injection time;
//  * every node forwards at most `service_rate` packets per cycle from its
//    FIFO (the router bottleneck); buffers are unbounded, so contention
//    shows up as queueing latency rather than drops;
//  * injection is Bernoulli(rate) per node per cycle;
//  * faulty nodes neither inject nor forward. A run with any fault (a
//    non-empty mask or a non-empty schedule) routes every packet around the
//    current faults with the topology's fault-tolerant algorithm from
//    cycle 0, and drops it at injection, counted by cause, when that fails
//    (no surviving path, or the adapter has none); a run with neither
//    routes natively (or Valiant). Both entry points run one cycle loop: a
//    static mask is the fault state at cycle 0, and scheduled events
//    change it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace hbnet {

namespace obs {
class ProgressBoard;
}

/// How packets are source-routed at injection.
enum class RoutingMode {
  kNative,   // the topology's own (usually minimal) algorithm
  kValiant,  // two-phase randomized: route to a random intermediate first
             // (classic load balancing for adversarial permutations)
};

struct SimConfig {
  double injection_rate = 0.05;  // packets/node/cycle
  std::uint64_t warmup_cycles = 200;
  std::uint64_t measure_cycles = 1000;
  std::uint64_t drain_cycles = 4000;  // extra cycles to flush in-flight load
  unsigned service_rate = 1;          // packets a node may forward per cycle
  std::uint64_t seed = 42;
  TrafficPattern pattern = TrafficPattern::kUniform;
  RoutingMode routing = RoutingMode::kNative;
};

/// Runs the simulation on `topo` with optional node faults.
/// `faulty` may be empty (no faults) or sized exactly num_nodes(); any
/// other size is a caller bug and fails an HBNET_CHECK (process abort).
///
/// A non-null `sink` collects per-link traversal counts, per-node queue
/// occupancy integrals, injection/delivery time series, counters, the
/// latency histogram, and (when tracing is enabled on the sink) packet
/// lifetime spans. A null sink adds no per-packet work.
///
/// A non-null `progress` receives live sim.cycle / sim.in_flight_packets /
/// sim.delivered slot updates each cycle (relaxed atomic stores on a
/// dedicated channel; results are unaffected).
[[nodiscard]] SimStats run_simulation(const SimTopology& topo,
                                      const SimConfig& config,
                                      const std::vector<char>& faulty = {},
                                      obs::Sink* sink = nullptr,
                                      obs::ProgressBoard* progress = nullptr);

/// A node failure occurring *during* the run.
struct FaultEvent {
  std::uint64_t cycle;    // when the node dies
  std::uint32_t node;
};

/// Dynamic-fault run: nodes die mid-simulation. In-flight packets whose
/// next hop just died are re-source-routed on the spot with the topology's
/// fault-tolerant algorithm (dropped if it has none or no path survives);
/// packets queued *at* a dying node are lost outright. Measures how the
/// Theorem-5 machinery behaves online rather than only at injection time.
/// An empty schedule is exactly run_simulation(topo, config); events at
/// cycle 0 are exactly the same nodes given as a static mask.
/// Every event's node must be < topo.num_nodes(); an out-of-range node is
/// a caller bug and fails an HBNET_CHECK (process abort).
[[nodiscard]] SimStats run_simulation_with_fault_events(
    const SimTopology& topo, const SimConfig& config,
    std::vector<FaultEvent> events, obs::Sink* sink = nullptr,
    obs::ProgressBoard* progress = nullptr);

namespace detail {

/// End-of-run SF telemetry export, shared with run_simulation_sharded so the
/// SF metric names live in one place: the run length, the link table
/// (packed (src << 32 | dst) -> count pairs in any order, exported sorted by
/// (src, dst)), the node occupancy integrals, the sim.* counters and the
/// sim.packet_latency histogram.
void export_sf_run(
    obs::Sink& sink, std::uint64_t cycles, const SimStats& stats,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> link_counts,
    std::vector<std::uint64_t> node_occ, std::uint64_t dropped_unroutable,
    std::uint64_t dropped_unsupported);

}  // namespace detail

}  // namespace hbnet
