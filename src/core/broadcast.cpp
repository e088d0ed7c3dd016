#include "core/broadcast.hpp"

#include <bit>
#include <stdexcept>
#include <vector>

#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace hbnet {

unsigned broadcast_lower_bound(const HyperButterfly& hb) {
  // Single-port: |informed| at most doubles per round.
  const std::uint64_t n = hb.num_nodes();
  unsigned lg = 0;
  while ((std::uint64_t{1} << lg) < n) ++lg;
  return lg;
}

unsigned greedy_broadcast_rounds(const Graph& g, NodeId source) {
  std::vector<char> informed(g.num_nodes(), 0);
  informed[source] = 1;
  std::vector<NodeId> holders{source};
  std::uint64_t count = 1;
  unsigned rounds = 0;
  while (count < g.num_nodes()) {
    ++rounds;
    std::vector<NodeId> fresh;
    for (NodeId u : holders) {
      // Send to the uninformed neighbor with the most uninformed neighbors
      // of its own (a cheap look-ahead that closes the last stragglers
      // faster than first-fit).
      NodeId best = kInvalidNode;
      std::uint32_t best_score = 0;
      for (NodeId v : g.neighbors(u)) {
        if (informed[v]) continue;
        std::uint32_t score = 1;
        for (NodeId w : g.neighbors(v)) score += !informed[w];
        if (best == kInvalidNode || score > best_score) {
          best = v;
          best_score = score;
        }
      }
      if (best != kInvalidNode) {
        informed[best] = 1;
        fresh.push_back(best);
        ++count;
      }
    }
    if (fresh.empty()) {
      throw std::logic_error("greedy_broadcast_rounds: stalled (disconnected?)");
    }
    holders.insert(holders.end(), fresh.begin(), fresh.end());
  }
  return rounds;
}

BroadcastResult hb_greedy_broadcast(const HyperButterfly& hb, HbNode source,
                                    obs::Sink* sink) {
  if (hb.num_nodes() > (HbIndex{1} << 31)) {
    throw std::length_error("hb_greedy_broadcast: instance too large");
  }
  Graph g = hb.to_graph();
  BroadcastResult r;
  r.rounds = greedy_broadcast_rounds(g, static_cast<NodeId>(hb.index_of(source)));
  r.informed = g.num_nodes();
  r.complete = true;
  if (sink != nullptr) {
    sink->metrics().counter("broadcast.greedy.rounds").inc(r.rounds);
    sink->metrics().counter("broadcast.greedy.informed").inc(r.informed);
    HBNET_TRACE_COMPLETE(sink, "broadcast", "greedy-broadcast", 0, 0, 0,
                         r.rounds, {{"informed", r.informed}});
  }
  return r;
}

BroadcastResult hb_structured_broadcast(const HyperButterfly& hb,
                                        HbNode source, obs::Sink* sink) {
  // Phase A: binomial broadcast across the m cube dimensions. Round i
  // doubles the informed set along bit i; after m rounds every cube layer
  // holds exactly the source's butterfly vertex. Phase B: all 2^m layers
  // run the same precomputed greedy butterfly schedule in parallel.
  const unsigned m = hb.cube_dimension();
  BroadcastResult r;
  unsigned layer_rounds = greedy_broadcast_rounds(
      hb.butterfly().to_graph(), hb.butterfly().index_of(source.bfly));
  r.rounds = m + layer_rounds;
  r.informed = hb.num_nodes();
  r.complete = true;
  if (sink != nullptr) {
    sink->metrics().counter("broadcast.structured.cube_rounds").inc(m);
    sink->metrics().counter("broadcast.structured.layer_rounds")
        .inc(layer_rounds);
    HBNET_TRACE_COMPLETE(sink, "broadcast", "cube-phase", 0, 0, 0, m,
                         {{"dimensions", m}});
    HBNET_TRACE_COMPLETE(sink, "broadcast", "butterfly-phase", 0, 0, m,
                         layer_rounds, {{"layers", std::uint64_t{1} << m}});
  }
  return r;
}

}  // namespace hbnet
