// Sharded synchronous store-and-forward engine for HB(m,n) -- the
// million-node datapath.
//
// The serial simulator (simulator.hpp) walks one std::deque<Packet> per node
// and heap-allocates each packet's full source route; fine up to ~10^5
// nodes, hopeless at 10^6+. This engine rebuilds that datapath around three
// ideas:
//
//  * Implicit routing (sim/hb_route.hpp): HB routes have closed form, so a
//    packet carries a 12-byte HbRouteState instead of a vector of node ids
//    and each hop is O(1) bit math -- no per-packet allocation, ever.
//  * Per-shard dense arenas: nodes are partitioned into contiguous shards
//    (sync::ShardPlan); each shard keeps its resident packets in a dense
//    double-buffered vector swept sequentially once per cycle -- per-node
//    FIFO order is the subsequence order, so there are no queue structures
//    at all. Serviced moves park in per-node slots and a second pass over a
//    bitset frontier emits them in ascending node order (the canonical
//    order that makes results independent of the shard count).
//  * Synchronous rounds over sync::Exchange: every cycle is compute-local
//    (inject + sweep, all moves batched into per-(from,to)-shard cells)
//    -> barrier -> deliver (drain cells, sender shards ascending), the same
//    discipline as the distsim protocol engine.
//
// Determinism contract: traffic is counter-based (StatelessTraffic -- a
// pure hash of seed/cycle/node), shards are contiguous, and delivery order
// is the global ascending-sender-id order, so stats, metrics JSON, and
// links CSV are byte-identical for every --threads x --shards combination
// (tools/test_sim_determinism.sh pins 1/2/8 x 1/4). Results are NOT
// bit-equal to the serial engine at equal seeds: the serial engine's
// order-dependent mt19937_64 draws cannot survive sharding, which is the
// point of the stateless generator.
//
// Scope: fault-free runs under kNative/kValiant routing on a HyperButterfly
// instance. Fault injection and non-HB topologies stay on the serial
// engine, whose route_avoiding machinery is inherently source-routed.
#pragma once

#include <cstdint>

#include "core/hyper_butterfly.hpp"
#include "obs/sink.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hbnet {

namespace obs {
class ProgressBoard;
}

/// Runs `config` on HB `hb` over `shards` contiguous node shards using
/// `threads` pool workers (0 = one shard per resolved worker / the --threads
/// default). Reports through `sink` and `progress` exactly like
/// run_simulation: the end-of-run export is the same detail::export_sf_run
/// (same metric names -- the two drop-cause counters read 0 here -- link
/// table and node occupancy integrals), plus the same time series;
/// per-packet trace spans are not emitted (at this scale they would dwarf
/// the run).
[[nodiscard]] SimStats run_simulation_sharded(
    const HyperButterfly& hb, const SimConfig& config, unsigned shards = 0,
    unsigned threads = 0, obs::Sink* sink = nullptr,
    obs::ProgressBoard* progress = nullptr);

}  // namespace hbnet
