#include "core/fault_routing.hpp"

#include <algorithm>

#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace hbnet {

namespace {

/// Records the outcome of one routing attempt into the sink.
void report(obs::Sink* sink, const HyperButterfly& hb, HbNode u, HbNode v,
            const FaultRouteResult& r) {
  if (sink == nullptr) return;
  obs::MetricsRegistry& reg = sink->metrics();
  reg.counter("fault_route.attempts").inc();
  reg.counter("fault_route.paths_tried").inc(r.paths_tried);
  if (r.used_fallback) reg.counter("fault_route.bfs_fallbacks").inc();
  if (!r.ok()) reg.counter("fault_route.failures").inc();
  HBNET_TRACE_INSTANT(
      sink, "routing", "route_around_faults", 0,
      static_cast<std::uint32_t>(hb.index_of(u)), 0,
      {{"src", hb.index_of(u)},
       {"dst", hb.index_of(v)},
       {"paths_tried", r.paths_tried},
       {"fallback", r.used_fallback ? 1u : 0u},
       {"hops", r.path.empty() ? 0 : r.path.size() - 1}});
}

/// Shared core of both route_around_faults overloads. `is_faulty(w)` tells
/// whether node w is faulty. `banned_first` may be null (no link bans).
/// `fallback` non-null enables the BFS fallback over that fault set; the
/// banned variant passes null because the reference search cannot honor
/// per-edge bans.
template <typename IsFaulty>
FaultRouteResult route_around_faults_impl(const HyperButterfly& hb, HbNode u,
                                          HbNode v, const IsFaulty& is_faulty,
                                          const std::vector<HbNode>* banned_first,
                                          const HbFaultSet* fallback,
                                          obs::Sink* sink) {
  FaultRouteResult r;
  if (is_faulty(u) || is_faulty(v)) {
    report(sink, hb, u, v, r);
    return r;
  }
  if (u == v) {
    r.path = {u};
    report(sink, hb, u, v, r);
    return r;
  }
  std::vector<std::vector<HbNode>> family = hb.disjoint_paths(u, v);
  // Prefer short paths: inspect the family in increasing length order.
  std::sort(family.begin(), family.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (auto& path : family) {
    ++r.paths_tried;
    bool clean = true;
    if (banned_first != nullptr && path.size() > 1) {
      for (const HbNode& b : *banned_first) {
        if (path[1] == b) {
          clean = false;
          break;
        }
      }
    }
    for (std::size_t i = 1; clean && i + 1 < path.size(); ++i) {
      if (is_faulty(path[i])) clean = false;
    }
    if (clean) {
      r.path = std::move(path);
      report(sink, hb, u, v, r);
      return r;
    }
  }
  if (fallback != nullptr) {
    if (auto p = hb_bfs_path(hb, u, v, fallback)) {
      r.path = std::move(*p);
      r.used_fallback = true;
    }
  }
  report(sink, hb, u, v, r);
  return r;
}

}  // namespace

FaultRouteResult route_around_faults(const HyperButterfly& hb, HbNode u,
                                     HbNode v, const HbFaultSet& faults,
                                     bool bfs_fallback, obs::Sink* sink) {
  return route_around_faults_impl(
      hb, u, v, [&](HbNode w) { return faults.contains(hb, w); },
      /*banned_first=*/nullptr, bfs_fallback ? &faults : nullptr, sink);
}

FaultRouteResult route_around_faults(const HyperButterfly& hb, HbNode u,
                                     HbNode v, std::span<const char> faulty,
                                     const std::vector<HbNode>& banned_first,
                                     obs::Sink* sink) {
  return route_around_faults_impl(
      hb, u, v,
      [&](HbNode w) {
        const HbIndex i = hb.index_of(w);
        return i < faulty.size() && faulty[i] != 0;
      },
      &banned_first, /*fallback=*/nullptr, sink);
}

}  // namespace hbnet
