// ABLATIONS: head-to-head timings of the library's design choices.
//  * exact covering-walk routing vs BFS shortest path (why the O(n)
//    planner exists),
//  * thread-parallel vs serial all-sources diameter (why parallel_bfs
//    exists -- it powers the Figure-2 HD columns),
//  * constructive Theorem-5 family vs generic max-flow extraction on the
//    full product graph (why the construction matters beyond the proof),
//  * structured vs greedy broadcast (rounds are in bench_broadcast; here
//    the planning cost).
#include <benchmark/benchmark.h>

#include <iostream>
#include <random>

#include "core/hyper_butterfly.hpp"
#include "graph/bfs.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/parallel_bfs.hpp"
#include "topology/butterfly.hpp"
#include "topology/hyper_debruijn.hpp"

namespace {

void BM_RouteCoveringWalk(benchmark::State& state) {
  hbnet::Butterfly bf(static_cast<unsigned>(state.range(0)));
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<hbnet::NodeId> pick(0, bf.num_nodes() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bf.route_nodes(bf.node_at(pick(rng)), bf.node_at(pick(rng))));
  }
  state.SetLabel("B(" + std::to_string(state.range(0)) + ") exact solver");
}
BENCHMARK(BM_RouteCoveringWalk)->Arg(8)->Arg(12)->Arg(16);

void BM_RouteBfsReference(benchmark::State& state) {
  hbnet::Butterfly bf(static_cast<unsigned>(state.range(0)));
  hbnet::Graph g = bf.to_graph();
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<hbnet::NodeId> pick(0, bf.num_nodes() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::shortest_path(g, pick(rng), pick(rng)));
  }
  state.SetLabel("B(" + std::to_string(state.range(0)) + ") BFS");
}
BENCHMARK(BM_RouteBfsReference)->Arg(8)->Arg(12);

void BM_DiameterSerial(benchmark::State& state) {
  hbnet::Graph g = hbnet::HyperDeBruijn(2, 7).to_graph();  // 512 nodes
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::diameter(g));
  }
}
BENCHMARK(BM_DiameterSerial)->Unit(benchmark::kMillisecond);

void BM_DiameterParallel(benchmark::State& state) {
  hbnet::Graph g = hbnet::HyperDeBruijn(2, 7).to_graph();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::parallel_diameter(g, threads));
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_DiameterParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_Theorem5Construction(benchmark::State& state) {
  hbnet::HyperButterfly hb(3, 6);
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<hbnet::HbIndex> pick(0, hb.num_nodes() - 1);
  // Warm this thread's butterfly-layer flow network so the loop measures
  // construction only.
  (void)hb.disjoint_paths(hb.node_at(0), hb.node_at(1));
  for (auto _ : state) {
    hbnet::HbIndex s = pick(rng), t = pick(rng);
    if (s == t) continue;
    benchmark::DoNotOptimize(hb.disjoint_paths(hb.node_at(s), hb.node_at(t)));
  }
  state.SetLabel("constructive (Thm 5)");
}
BENCHMARK(BM_Theorem5Construction)->Unit(benchmark::kMicrosecond);

void BM_Theorem5ViaFullGraphFlow(benchmark::State& state) {
  hbnet::HyperButterfly hb(3, 6);
  hbnet::Graph g = hb.to_graph();  // the whole 3072-node product graph
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<hbnet::HbIndex> pick(0, hb.num_nodes() - 1);
  for (auto _ : state) {
    hbnet::HbIndex s = pick(rng), t = pick(rng);
    if (s == t) continue;
    benchmark::DoNotOptimize(
        hbnet::flow_disjoint_paths(g, static_cast<hbnet::NodeId>(s),
                                   static_cast<hbnet::NodeId>(t)));
  }
  state.SetLabel("max-flow on product graph");
}
BENCHMARK(BM_Theorem5ViaFullGraphFlow)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "ABLATIONS: design-choice head-to-heads (see labels)\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
