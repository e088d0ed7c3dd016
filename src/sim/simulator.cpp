#include "sim/simulator.hpp"

#include <algorithm>
#include <deque>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace hbnet {
namespace {

struct Packet {
  std::vector<std::uint32_t> path;  // source-routed vertex sequence
  std::uint32_t hop = 0;            // index into path of current node
  std::uint64_t injected_at = 0;
  bool measured = false;  // injected inside the measurement window
};

/// Store-and-forward telemetry of the serial cycle loop, active only when a
/// sink is attached.
struct SfTelemetry {
  obs::Sink* sink = nullptr;
  std::unordered_map<std::uint64_t, std::uint64_t> link_moves;
  std::vector<std::uint64_t> node_occ;
  obs::TimeSeries* inject_ts = nullptr;
  obs::TimeSeries* deliver_ts = nullptr;
  // Live progress slots (dedicated channel; never feeds back into the
  // run). Resolved once so per-cycle updates are plain relaxed stores.
  obs::ProgressBoard::Slot* prog_cycle = nullptr;
  obs::ProgressBoard::Slot* prog_in_flight = nullptr;
  obs::ProgressBoard::Slot* prog_delivered = nullptr;

  SfTelemetry(obs::Sink* s, std::uint32_t n, const SimConfig& config,
              obs::ProgressBoard* progress)
      : sink(s) {
    if (progress != nullptr) {
      prog_cycle = &progress->slot("sim.cycle");
      prog_in_flight = &progress->slot("sim.in_flight_packets");
      prog_delivered = &progress->slot("sim.delivered");
    }
    if (sink == nullptr) return;
    node_occ.assign(n, 0);
    const std::uint64_t bucket = std::max<std::uint64_t>(
        1, (config.warmup_cycles + config.measure_cycles) / 64);
    inject_ts = &sink->time_series("sim.injected", bucket);
    deliver_ts = &sink->time_series("sim.delivered", bucket);
  }

  void on_inject(std::uint64_t cycle) {
    if (inject_ts != nullptr) inject_ts->bump(cycle);
  }
  void on_move(std::uint32_t u, std::uint32_t v) {
    if (sink != nullptr) {
      ++link_moves[(static_cast<std::uint64_t>(u) << 32) | v];
    }
  }
  void on_deliver(std::uint64_t cycle, const Packet& pkt) {
    if (prog_delivered != nullptr) prog_delivered->add(1);
    if (deliver_ts != nullptr) deliver_ts->bump(cycle);
    HBNET_TRACE_COMPLETE(sink, "packet", "pkt", 0, pkt.path.front(),
                         pkt.injected_at, cycle + 1 - pkt.injected_at,
                         {{"src", pkt.path.front()},
                          {"dst", pkt.path.back()},
                          {"hops", pkt.path.size() - 1}});
  }
  void sweep(const std::vector<std::deque<Packet>>& queue,
             std::uint64_t cycle, std::uint64_t in_flight) {
    if (prog_cycle != nullptr) {
      prog_cycle->set(cycle);
      prog_in_flight->set(in_flight);
    }
    if (sink == nullptr) return;
    for (std::size_t v = 0; v < queue.size(); ++v) {
      node_occ[v] += queue[v].size();
    }
    HBNET_TRACE_COUNTER(sink, "in_flight_packets", 0, cycle, in_flight);
  }
  // Routing-drop causes, counted separately so a dropped-by-design packet
  // (faults really disconnect the pair: kNoPath) is distinguishable from a
  // misconfigured run (the adapter has no fault-tolerant algorithm at all:
  // kUnsupported). Bumped exactly when the matching record_drop() happens in
  // a routing decision; fault-event queue losses are neither.
  std::uint64_t dropped_unroutable = 0;
  std::uint64_t dropped_unsupported = 0;

  void on_route_drop(FaultRouteStatus status) {
    if (status == FaultRouteStatus::kUnsupported) {
      ++dropped_unsupported;
    } else {
      ++dropped_unroutable;
    }
  }

  void finish(std::uint64_t cycles, const SimStats& stats) {
    if (sink == nullptr) return;
    // link_moves is a hash map; export_sf_run sorts what it iterates.
    detail::export_sf_run(*sink, cycles, stats,
                          {link_moves.begin(), link_moves.end()},
                          std::move(node_occ), dropped_unroutable,
                          dropped_unsupported);
  }
};

/// The serial cycle loop behind both entry points, with the routing rule
/// stated in simulator.hpp. `faulty` is the fault state at cycle 0 (empty:
/// no static faults) and `events`, sorted by cycle, kill further nodes.
SimStats run_cycles(const SimTopology& topo, const SimConfig& config,
                    std::vector<char> faulty,
                    const std::vector<FaultEvent>& events, obs::Sink* sink,
                    obs::ProgressBoard* progress) {
  const std::uint32_t n = topo.num_nodes();
  const bool have_faults = !faulty.empty() || !events.empty();
  if (have_faults) faulty.resize(n, 0);
  std::size_t next_event = 0;

  SimStats stats;
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  TrafficGenerator traffic(config.pattern, n,
                           config.seed ^ 0x9e3779b97f4a7c15ull);

  std::vector<std::deque<Packet>> queue(n);
  const std::uint64_t horizon =
      config.warmup_cycles + config.measure_cycles + config.drain_cycles;
  std::uint64_t in_flight = 0;
  SfTelemetry telem(sink, n, config, progress);
  // Hoisted per-cycle scratch: cleared each cycle, capacity persists.
  std::vector<std::pair<std::uint32_t, Packet>> moving;

  std::uint64_t cycle = 0;
  for (; cycle < horizon; ++cycle) {
    // Fault arrivals: kill nodes, losing their queued packets.
    while (next_event < events.size() && events[next_event].cycle <= cycle) {
      std::uint32_t dead = events[next_event].node;
      if (!faulty[dead]) {
        faulty[dead] = 1;
        HBNET_TRACE_INSTANT(sink, "fault", "node_death", 0, dead, cycle,
                            {{"node", dead},
                             {"lost_packets", queue[dead].size()}});
        for (const Packet& pkt : queue[dead]) {
          if (pkt.measured) stats.record_drop();
          --in_flight;
        }
        queue[dead].clear();
      }
      ++next_event;
    }

    const bool injecting =
        cycle < config.warmup_cycles + config.measure_cycles;
    const bool measuring =
        cycle >= config.warmup_cycles && injecting;

    // Injection phase.
    if (injecting) {
      for (std::uint32_t src = 0; src < n; ++src) {
        if (have_faults && faulty[src]) continue;
        if (coin(rng) >= config.injection_rate) continue;
        std::uint32_t dst = traffic.destination(src);
        if (have_faults && faulty[dst]) continue;  // dead destination
        Packet pkt;
        if (have_faults) {
          SimFaultRoute r = topo.route_avoiding(src, dst, faulty);
          if (!r.ok()) {
            if (measuring) {
              stats.record_injection();
              stats.record_drop();
              telem.on_route_drop(r.status);
            }
            continue;
          }
          pkt.path = std::move(r.path);
        } else if (config.routing == RoutingMode::kValiant && src != dst) {
          // Valiant two-phase routing: src -> random intermediate -> dst.
          std::uniform_int_distribution<std::uint32_t> mid(0, n - 1);
          std::uint32_t w = mid(rng);
          pkt.path = topo.route(src, w);
          if (w != dst) {
            std::vector<std::uint32_t> tail = topo.route(w, dst);
            pkt.path.insert(pkt.path.end(), tail.begin() + 1, tail.end());
          }
        } else {
          pkt.path = topo.route(src, dst);
        }
        pkt.injected_at = cycle;
        pkt.measured = measuring;
        if (measuring) stats.record_injection();
        telem.on_inject(cycle);
        if (pkt.path.size() <= 1) {
          if (pkt.measured) stats.record_delivery(0, 0);
          continue;
        }
        queue[src].push_back(std::move(pkt));
        ++in_flight;
      }
    }

    // Forwarding phase: each node services up to service_rate head packets.
    // Two-phase update (collect then place) keeps per-cycle semantics: a
    // packet moves one hop per cycle at most.
    moving.clear();
    for (std::uint32_t v = 0; v < n; ++v) {
      for (unsigned s = 0; s < config.service_rate && !queue[v].empty(); ++s) {
        Packet pkt = std::move(queue[v].front());
        queue[v].pop_front();
        HBNET_DCHECK(pkt.hop + 1 < pkt.path.size());
        std::uint32_t next = pkt.path[pkt.hop + 1];
        if (have_faults && faulty[next]) {
          // Online repair: re-source-route from here around the faults.
          // Only a node that died after this packet was routed gets here.
          std::uint32_t dst = pkt.path.back();
          SimFaultRoute repaired;
          if (faulty[dst]) {
            // A dead destination is unroutable by design, not an adapter
            // limitation.
            repaired.status = FaultRouteStatus::kNoPath;
          } else {
            repaired = topo.route_avoiding(v, dst, faulty);
          }
          if (!repaired.ok() || repaired.path.size() <= 1) {
            if (pkt.measured) {
              stats.record_drop();
              telem.on_route_drop(repaired.status);
            }
            --in_flight;
            continue;
          }
          // Splice the detour onto the hops already taken, so the path
          // still starts at the source and path.size() - 1 counts every hop.
          pkt.path.resize(pkt.hop + 1);
          pkt.path.insert(pkt.path.end(), repaired.path.begin() + 1,
                          repaired.path.end());
          next = pkt.path[pkt.hop + 1];
        }
        ++pkt.hop;
        telem.on_move(v, next);
        if (pkt.hop + 1 == pkt.path.size()) {
          // Delivered at `next`.
          if (pkt.measured) {
            stats.record_delivery(cycle + 1 - pkt.injected_at, pkt.hop);
          }
          telem.on_deliver(cycle, pkt);
          HBNET_DCHECK(in_flight > 0);
          --in_flight;
        } else {
          moving.emplace_back(next, std::move(pkt));
        }
      }
    }
    for (auto& [node, pkt] : moving) {
      queue[node].push_back(std::move(pkt));
    }
    telem.sweep(queue, cycle, in_flight);
    if (!injecting && in_flight == 0 && next_event >= events.size()) break;
  }
  telem.finish(std::min(cycle + 1, horizon), stats);
  return stats;
}

}  // namespace

namespace detail {

void export_sf_run(
    obs::Sink& sink, std::uint64_t cycles, const SimStats& stats,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> link_counts,
    std::vector<std::uint64_t> node_occ, std::uint64_t dropped_unroutable,
    std::uint64_t dropped_unsupported) {
  sink.set_run_cycles(cycles);
  // The link table is ordered by (src, dst) -- the packed key -- whatever
  // order the engine tallied it in, so telemetry output is canonical and
  // byte-identical across runs, engines and standard libraries.
  std::sort(link_counts.begin(), link_counts.end());
  std::uint64_t moves_total = 0;
  sink.links().reserve(sink.links().size() + link_counts.size());
  for (const auto& [key, count] : link_counts) {
    obs::LinkStats link;
    link.src = static_cast<std::uint32_t>(key >> 32);
    link.dst = static_cast<std::uint32_t>(key & 0xffffffffu);
    link.forwarded = count;
    moves_total += count;
    sink.links().push_back(std::move(link));
  }
  sink.node_occupancy() = std::move(node_occ);
  obs::MetricsRegistry& reg = sink.metrics();
  reg.counter("sim.injected").inc(stats.injected());
  reg.counter("sim.delivered").inc(stats.delivered());
  reg.counter("sim.dropped").inc(stats.dropped());
  reg.counter("sim.dropped_unroutable").inc(dropped_unroutable);
  reg.counter("sim.dropped_unsupported").inc(dropped_unsupported);
  reg.counter("sim.packet_moves").inc(moves_total);
  reg.counter("sim.cycles").inc(cycles);
  reg.histogram("sim.packet_latency").merge(stats.latency_histogram());
}

}  // namespace detail

SimStats run_simulation(const SimTopology& topo, const SimConfig& config,
                        const std::vector<char>& faulty, obs::Sink* sink,
                        obs::ProgressBoard* progress) {
  HBNET_CHECK_MSG(faulty.empty() || faulty.size() == topo.num_nodes(),
                  "run_simulation: fault mask must be empty or num_nodes()");
  return run_cycles(topo, config, faulty, {}, sink, progress);
}

SimStats run_simulation_with_fault_events(const SimTopology& topo,
                                          const SimConfig& config,
                                          std::vector<FaultEvent> events,
                                          obs::Sink* sink,
                                          obs::ProgressBoard* progress) {
  for (const FaultEvent& ev : events) {
    HBNET_CHECK_MSG(ev.node < topo.num_nodes(),
                    "run_simulation_with_fault_events: event node out of "
                    "range");
  }
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.cycle < b.cycle;
            });
  return run_cycles(topo, config, {}, events, sink, progress);
}

}  // namespace hbnet
