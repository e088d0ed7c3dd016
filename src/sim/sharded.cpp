#include "sim/sharded.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "distsim/sync_engine.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "sim/hb_route.hpp"
#include "sim/traffic.hpp"

namespace hbnet {
namespace {

/// A resident packet: one fixed-size arena slot, no owned memory. The
/// current position is stored pre-split as (wc = (cube << n) | word, level)
/// so the hot sweep derives the dense id with one multiply (wc * n + level)
/// and never divides.
struct ShardPacket {
  std::uint32_t wc = 0;           // (cube << n) | word of the current node
  std::uint32_t src = 0;          // dense id (telemetry only)
  std::uint32_t dst = 0;          // final destination (Valiant re-plan)
  std::uint32_t injected_at = 0;
  sim::HbRouteState route;
  std::uint16_t hops = 0;
  std::uint8_t level = 0;         // butterfly level of the current node
  std::uint8_t flags = 0;
};
constexpr std::uint8_t kMeasured = 1;
constexpr std::uint8_t kRevisit = 2;  // Valiant phase 1: re-plan on arrival

static_assert(sizeof(ShardPacket) == 32, "arena slots should stay compact");

/// Per-shard state. Only the owning worker touches it between barriers.
///
/// Queues are not linked lists: each shard keeps its resident packets in a
/// dense, double-buffered arena (`cur` / `nxt`) ordered oldest-first, with
/// same-cycle arrivals in ascending-sender order (the Exchange guarantee).
/// A node's FIFO is the subsequence of its packets in that order, so one
/// sequential sweep of `cur` services every queue: the first service_rate
/// packets seen for a node are forwarded, the rest are keepers appended to
/// `nxt`. Idle nodes cost nothing -- the sweep touches packets, not nodes.
///
/// Forwarded packets are parked in per-node `slots` and emitted to the
/// Exchange in a second pass that walks the `frontier` bitset of serviced
/// nodes in ascending order. That restores the canonical ascending-sender
/// emission order no matter where the sweep encountered each packet, which
/// is what keeps results byte-identical across every shard count.
struct Shard {
  std::uint32_t begin = 0, end = 0;  // global node range [begin, end)

  std::vector<ShardPacket> cur, nxt;  // double-buffered resident arena
  // Bitset over local nodes serviced this cycle (cleared lazily by the
  // emission pass, so drain-phase cycles with few packets stay O(packets)).
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint8_t> served;   // services consumed this cycle
  std::vector<std::uint8_t> moved;    // move slots filled this cycle
  std::vector<ShardPacket> slots;     // local_count * service_rate

  SimStats stats;
  std::uint64_t delivered = 0;  // cumulative (progress display)

  // Telemetry accumulators (allocated only when a sink is attached).
  std::vector<std::uint64_t> gen_moves;  // local node x generator
  std::vector<std::uint64_t> inject_buckets, deliver_buckets;
  std::vector<std::uint64_t> node_occ;   // per local node queue integral

  [[nodiscard]] std::uint32_t local_count() const { return end - begin; }
};

}  // namespace

SimStats run_simulation_sharded(const HyperButterfly& hb,
                                const SimConfig& config, unsigned shards,
                                unsigned threads, obs::Sink* sink,
                                obs::ProgressBoard* progress) {
  const HbIndex num_nodes64 = hb.num_nodes();
  HBNET_CHECK_MSG(num_nodes64 < 0xffffffffu,
                  "run_simulation_sharded: instance exceeds 32-bit id space");
  const auto n = static_cast<std::uint32_t>(num_nodes64);
  const std::uint64_t horizon =
      config.warmup_cycles + config.measure_cycles + config.drain_cycles;
  HBNET_CHECK_MSG(horizon < 0xffffffffu,
                  "run_simulation_sharded: horizon exceeds 32-bit cycles");
  HBNET_CHECK_MSG(config.service_rate >= 1 && config.service_rate <= 255,
                  "run_simulation_sharded: service_rate must be in [1, 255]");
  const std::uint32_t sr = config.service_rate;

  const unsigned bdim = hb.butterfly_dimension();
  const std::uint32_t word_mask = (std::uint32_t{1} << bdim) - 1;

  const unsigned workers = par::resolve_threads(threads);
  // Auto-sharding targets ~16K nodes per shard: small enough that a shard's
  // resident packets, service arrays and move slots stay cache-resident for
  // the whole compute phase (the exchange then acts as a radix partition of
  // the cross-shard traffic), while never dropping below one shard per
  // worker.
  const unsigned num_shards =
      shards != 0 ? shards
                  : std::max<unsigned>(workers, (n + 16383) / 16384);
  const sync::ShardPlan plan(n, num_shards);
  const unsigned degree = hb.degree();
  const sim::HbImplicitRouter router(hb);
  const StatelessTraffic traffic(config.pattern, n,
                                 config.seed ^ 0x9e3779b97f4a7c15ull,
                                 config.injection_rate);
  const bool valiant = config.routing == RoutingMode::kValiant;

  const std::uint64_t ts_bucket = std::max<std::uint64_t>(
      1, (config.warmup_cycles + config.measure_cycles) / 64);
  const std::size_t ts_size =
      static_cast<std::size_t>(horizon / ts_bucket) + 1;

  std::vector<Shard> shard(plan.shards());
  for (unsigned s = 0; s < plan.shards(); ++s) {
    Shard& sh = shard[s];
    sh.begin = static_cast<std::uint32_t>(plan.begin(s));
    sh.end = static_cast<std::uint32_t>(plan.end(s));
    const std::uint32_t local = sh.local_count();
    sh.frontier.assign((local + 63) / 64, 0);
    sh.served.assign(local, 0);
    sh.moved.assign(local, 0);
    sh.slots.resize(static_cast<std::size_t>(local) * sr);
    if (sink != nullptr) {
      sh.gen_moves.assign(static_cast<std::size_t>(local) * degree, 0);
      sh.inject_buckets.assign(ts_size, 0);
      sh.deliver_buckets.assign(ts_size, 0);
      sh.node_occ.assign(local, 0);
    }
  }

  sync::Exchange<ShardPacket> exchange(plan.shards());
  par::ThreadPool pool(workers);

  obs::ProgressBoard::Slot* prog_cycle = nullptr;
  obs::ProgressBoard::Slot* prog_in_flight = nullptr;
  obs::ProgressBoard::Slot* prog_delivered = nullptr;
  if (progress != nullptr) {
    prog_cycle = &progress->slot("sim.cycle");
    prog_in_flight = &progress->slot("sim.in_flight_packets");
    prog_delivered = &progress->slot("sim.delivered");
  }

  // Plans the route for a fresh packet at `src` -> `dst_id`, applying
  // Valiant's random-intermediate phase when configured.
  auto plan_packet = [&](const StatelessTraffic::CycleView& tv,
                         std::uint32_t src_id, HbNode src,
                         std::uint32_t dst_id, ShardPacket& pkt) {
    pkt.src = src_id;
    pkt.dst = dst_id;
    if (valiant) {
      const std::uint32_t w = tv.intermediate(src_id);
      if (w != src_id && w != dst_id) {
        pkt.route = router.plan(src, hb.node_at(w));
        pkt.flags |= kRevisit;
        return;
      }
    }
    pkt.route = router.plan(src, hb.node_at(dst_id));
  };

  std::uint64_t cycle = 0;
  std::uint64_t global_in_flight = 0;
  for (; cycle < horizon; ++cycle) {
    const bool injecting =
        cycle < config.warmup_cycles + config.measure_cycles;
    const bool measuring = cycle >= config.warmup_cycles && injecting;
    const std::size_t ts_idx = static_cast<std::size_t>(cycle / ts_bucket);
    const StatelessTraffic::CycleView tv = traffic.at(cycle);

    // Compute phase: inject, sweep, emit -- all moves into the exchange.
    pool.parallel_for_chunks(plan.shards(), 1, [&](std::uint64_t s_begin,
                                                   std::uint64_t s_end) {
      for (std::uint64_t si = s_begin; si < s_end; ++si) {
        const auto s = static_cast<unsigned>(si);
        Shard& sh = shard[s];

        // Injection: fresh packets append behind every resident one, in
        // ascending node order. Node coordinates advance incrementally --
        // the only divisions are these two, once per shard per cycle.
        if (injecting) {
          std::uint32_t wc = sh.begin / bdim;
          std::uint32_t level = sh.begin % bdim;
          for (std::uint32_t id = sh.begin; id < sh.end; ++id) {
            if (tv.injects(id)) {
              ShardPacket pkt;
              pkt.wc = wc;
              pkt.level = static_cast<std::uint8_t>(level);
              pkt.injected_at = static_cast<std::uint32_t>(cycle);
              if (measuring) {
                pkt.flags |= kMeasured;
                sh.stats.record_injection();
              }
              if (!sh.inject_buckets.empty()) ++sh.inject_buckets[ts_idx];
              const HbNode src{static_cast<CubeWord>(wc >> bdim),
                               {wc & word_mask, level}};
              plan_packet(tv, id, src, tv.destination(id), pkt);
              sh.cur.push_back(pkt);
            }
            if (++level == bdim) {
              level = 0;
              ++wc;
            }
          }
        }

        // Sweep: one sequential pass over the resident arena. Per-node
        // FIFO order == arena order, so the first service_rate packets
        // seen for a node are serviced; the rest become keepers.
        for (ShardPacket& pkt : sh.cur) {
          const std::uint32_t local = pkt.wc * bdim + pkt.level - sh.begin;
          if (sh.served[local] >= sr) {
            if (!sh.node_occ.empty()) ++sh.node_occ[local];
            sh.nxt.push_back(pkt);
            continue;
          }
          if (sh.served[local] == 0) {
            sh.frontier[local >> 6] |= std::uint64_t{1} << (local & 63);
          }
          ++sh.served[local];

          const HbNode cur_node{static_cast<CubeWord>(pkt.wc >> bdim),
                                {pkt.wc & word_mask, pkt.level}};
          if (pkt.route.done()) {
            // Valiant intermediate reached last cycle: aim at the real
            // destination now (same queueing delay the serial engine's
            // concatenated path incurs).
            HBNET_DCHECK_MSG((pkt.flags & kRevisit) != 0, "stuck packet");
            pkt.flags &= static_cast<std::uint8_t>(~kRevisit);
            pkt.route = router.plan(cur_node, hb.node_at(pkt.dst));
          }
          const sim::HbHop hop = router.next_hop(cur_node, pkt.route);
          ++pkt.hops;
          if (!sh.gen_moves.empty()) {
            ++sh.gen_moves[static_cast<std::size_t>(local) * degree +
                           hop.gen];
          }
          if (pkt.route.done() && (pkt.flags & kRevisit) == 0) {
            // Delivered at the hop target.
            if (pkt.flags & kMeasured) {
              sh.stats.record_delivery(cycle + 1 - pkt.injected_at,
                                       pkt.hops);
            }
            ++sh.delivered;
            if (!sh.deliver_buckets.empty()) ++sh.deliver_buckets[ts_idx];
          } else {
            pkt.wc = static_cast<std::uint32_t>(
                (hop.next.cube << bdim) | hop.next.bfly.word);
            pkt.level = static_cast<std::uint8_t>(hop.next.bfly.level);
            sh.slots[static_cast<std::size_t>(local) * sr +
                     sh.moved[local]++] = pkt;
          }
        }
        sh.cur.clear();

        // Emission: walk the serviced frontier in ascending node order and
        // push parked moves to the exchange. This -- not the sweep order --
        // fixes the delivery order, so it is shard-count independent.
        // Resets the per-cycle service state as it goes (O(serviced)).
        for (std::size_t w = 0; w < sh.frontier.size(); ++w) {
          std::uint64_t bits = sh.frontier[w];
          if (bits == 0) continue;
          sh.frontier[w] = 0;
          while (bits != 0) {
            const auto local = static_cast<std::uint32_t>(
                (w << 6) + static_cast<unsigned>(std::countr_zero(bits)));
            bits &= bits - 1;
            const unsigned nmoves = sh.moved[local];
            sh.served[local] = 0;
            sh.moved[local] = 0;
            for (unsigned k = 0; k < nmoves; ++k) {
              ShardPacket& p =
                  sh.slots[static_cast<std::size_t>(local) * sr + k];
              const std::uint32_t to = p.wc * bdim + p.level;
              exchange.push(s, plan.shard_of(to), p);
            }
          }
        }
      }
    });
    // parallel_for_chunks returning IS the barrier: every shard has pushed
    // all of its moves.

    // Deliver phase: keepers become the new resident prefix, then exchange
    // columns drain behind them (sender shards ascending => global
    // ascending sender order).
    pool.parallel_for_chunks(plan.shards(), 1, [&](std::uint64_t s_begin,
                                                   std::uint64_t s_end) {
      for (std::uint64_t si = s_begin; si < s_end; ++si) {
        const auto s = static_cast<unsigned>(si);
        Shard& sh = shard[s];
        std::swap(sh.cur, sh.nxt);
        exchange.drain(s, [&sh, bdim](ShardPacket& p) {
          if (!sh.node_occ.empty()) {
            ++sh.node_occ[p.wc * bdim + p.level - sh.begin];
          }
          sh.cur.push_back(p);
        });
      }
    });

    global_in_flight = 0;
    std::uint64_t delivered_total = 0;
    for (const Shard& sh : shard) {
      global_in_flight += sh.cur.size();
      delivered_total += sh.delivered;
    }
    if (prog_cycle != nullptr) {
      prog_cycle->set(cycle);
      prog_in_flight->set(global_in_flight);
      prog_delivered->set(delivered_total);
    }
    HBNET_TRACE_COUNTER(sink, "in_flight_packets", 0, cycle, global_in_flight);
    if (!injecting && global_in_flight == 0) break;
  }

  // Merge phase (serial, shard-ascending => shard-count independent).
  SimStats stats;
  for (const Shard& sh : shard) stats.merge(sh.stats);

  if (sink != nullptr) {
    obs::TimeSeries& inject_ts = sink->time_series("sim.injected", ts_bucket);
    obs::TimeSeries& deliver_ts = sink->time_series("sim.delivered", ts_bucket);
    for (const Shard& sh : shard) {
      for (std::size_t b = 0; b < ts_size; ++b) {
        if (sh.inject_buckets[b] != 0) {
          inject_ts.bump(b * ts_bucket, sh.inject_buckets[b]);
        }
        if (sh.deliver_buckets[b] != 0) {
          deliver_ts.bump(b * ts_bucket, sh.deliver_buckets[b]);
        }
      }
    }

    // Link table: expand (node, generator) tallies into packed (src, dst)
    // records; export_sf_run orders them like the serial engine's.
    const std::vector<HbGen> gens = hb.generators();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> link_counts;
    for (const Shard& sh : shard) {
      for (std::uint32_t local = 0; local < sh.local_count(); ++local) {
        const HbNode u = hb.node_at(sh.begin + local);
        for (unsigned gi = 0; gi < degree; ++gi) {
          const std::uint64_t count =
              sh.gen_moves[static_cast<std::size_t>(local) * degree + gi];
          if (count == 0) continue;
          const auto dst =
              static_cast<std::uint32_t>(hb.index_of(hb.apply(u, gens[gi])));
          link_counts.emplace_back(
              (static_cast<std::uint64_t>(sh.begin + local) << 32) | dst,
              count);
        }
      }
    }

    std::vector<std::uint64_t> node_occ(n, 0);
    for (const Shard& sh : shard) {
      std::copy(sh.node_occ.begin(), sh.node_occ.end(),
                node_occ.begin() + sh.begin);
    }
    // Fault-free by scope: no packet is ever dropped for want of a route.
    detail::export_sf_run(*sink, std::min(cycle + 1, horizon), stats,
                          std::move(link_counts), std::move(node_occ), 0, 0);
  }
  return stats;
}

}  // namespace hbnet
