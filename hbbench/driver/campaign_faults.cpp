// campaign_faults: a fault-injection campaign on HB(3,5) over {random,
// adversarial, events} x faults {0, m+3} x 2 repeats, fanned over the par
// pool. Many small source-routed serial runs; every packet of a statically
// faulted trial goes through route_avoiding -> route_around_faults, and
// faulted trials cost ~13x fault-free ones, so par sees coarse, unbalanced
// tasks. Packets lost to mid-run node deaths are allowed losses. Its traced
// run also probes the wormhole engine on the same HB(3,5) with m+3 faults.
#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "core/fault_routing.hpp"
#include "core/hyper_butterfly.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace hbbench {
namespace {

namespace camp = hbnet::campaign;

constexpr unsigned kM = 3, kN = 5;
constexpr unsigned kFaults = kM + 3;
constexpr unsigned kProbePairsPerTrial = 100;
constexpr unsigned kSerialReruns = 3;
// campaign.cpp's derivation stream for fault sets (split_seed stream 1).
constexpr std::uint64_t kStreamFaults = 1;

camp::CampaignConfig workload_config(std::uint64_t seed, unsigned threads) {
  camp::CampaignConfig cfg;
  cfg.m = kM;
  cfg.n = kN;
  cfg.engine = camp::Engine::kStoreForward;
  cfg.models = {camp::FaultModel::kRandom, camp::FaultModel::kAdversarial,
                camp::FaultModel::kEvents};
  cfg.rates = {0.05};
  cfg.fault_counts = {0, kFaults};
  cfg.trials = 2;
  cfg.seed = seed;
  cfg.sim.warmup_cycles = 50;
  cfg.sim.measure_cycles = 100;
  cfg.threads = threads;
  return cfg;
}

bool statically_faulted(const camp::TrialSpec& spec) {
  return spec.fault_count > 0 && spec.model != camp::FaultModel::kEvents;
}

/// The labels run_campaign tags a trial's instruments with.
hbnet::obs::LabelSet cell_labels(const camp::TrialSpec& spec) {
  std::ostringstream rate;
  rate << spec.rate;
  return {{"model", camp::fault_model_name(spec.model)},
          {"rate", rate.str()},
          {"faults", std::to_string(spec.fault_count)}};
}

/// Inputs of one trial rebuilt from its TrialSpec with public functions,
/// the way run_campaign derives them.
struct TrialInputs {
  hbnet::SimConfig sim;
  std::vector<char> mask;                  // static models
  std::vector<hbnet::FaultEvent> events;   // events model
};

TrialInputs trial_inputs(const camp::CampaignConfig& cfg,
                         const camp::TrialSpec& spec,
                         const std::vector<std::uint32_t>& ranking,
                         std::uint32_t nodes) {
  TrialInputs in;
  in.sim = cfg.sim;
  in.sim.injection_rate = spec.rate;
  in.sim.seed = spec.seed;
  if (spec.fault_count == 0) return in;
  std::vector<std::uint32_t> faulty;
  if (spec.model == camp::FaultModel::kAdversarial) {
    faulty.assign(ranking.begin(), ranking.begin() + spec.fault_count);
  } else {
    faulty = camp::derived_fault_nodes(
        camp::split_seed(cfg.seed, spec.index, kStreamFaults), nodes,
        spec.fault_count);
  }
  if (spec.model == camp::FaultModel::kEvents) {
    for (unsigned e = 0; e < faulty.size(); ++e) {
      in.events.push_back(
          {cfg.sim.warmup_cycles +
               ((e + 1) * cfg.sim.measure_cycles) / (spec.fault_count + 1),
           faulty[e]});
    }
  } else {
    in.mask.assign(nodes, 0);
    for (std::uint32_t v : faulty) in.mask[v] = 1;
  }
  return in;
}

/// The first packets a statically faulted trial injects: the serial
/// simulator draws a Bernoulli coin per live node from mt19937_64(seed) and
/// the destination from TrafficGenerator(seed ^ 0x9e3779b97f4a7c15).
std::vector<std::pair<std::uint32_t, std::uint32_t>> trial_pairs(
    const TrialInputs& in, std::uint32_t nodes) {
  std::mt19937_64 rng(in.sim.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  hbnet::TrafficGenerator traffic(in.sim.pattern, nodes,
                                  in.sim.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  while (pairs.size() < kProbePairsPerTrial) {
    for (std::uint32_t src = 0;
         src < nodes && pairs.size() < kProbePairsPerTrial; ++src) {
      if (in.mask[src]) continue;
      if (coin(rng) >= in.sim.injection_rate) continue;
      const std::uint32_t dst = traffic.destination(src);
      if (!in.mask[dst]) pairs.emplace_back(src, dst);
    }
  }
  return pairs;
}

std::string campaign_csv(const camp::CampaignResult& r) {
  std::ostringstream os;
  camp::write_campaign_csv(os, r);
  return os.str();
}

}  // namespace

Outcome run_campaign_faults(Context& ctx) {
  Tracer& tr = *ctx.tracer;
  Outcome out;
  const camp::CampaignConfig cfg = workload_config(ctx.seed, ctx.threads);

  std::vector<camp::TrialSpec> specs;
  std::vector<std::uint32_t> ranking;
  std::optional<hbnet::HyperButterfly> hb;
  std::unique_ptr<hbnet::SimTopology> topo;
  std::vector<double> setup_s, enumerate_s, ranking_s, hb_s, topo_s;
  auto setup = [&] {
    const Scope s(tr, "setup");
    enumerate_s.push_back(
        setup_part(tr, "campaign.enumerate_trials", 5, 100,
                   [&] { specs = camp::enumerate_trials(cfg); }));
    ranking_s.push_back(
        setup_part(tr, "campaign.adversarial_fault_ranking", 5, 1,
                   [&] { ranking = camp::adversarial_fault_ranking(kM, kN); }));
    hb_s.push_back(setup_part(tr, "core.hyper_butterfly.build", 5, 1000,
                              [&] { hb.emplace(kM, kN); }));
    topo_s.push_back(
        setup_part(tr, "sim.make_hyper_butterfly_sim", 5, 1000,
                   [&] { topo = hbnet::make_hyper_butterfly_sim(kM, kN); }));
    setup_s.push_back(enumerate_s.back() + ranking_s.back() + hb_s.back() +
                      topo_s.back());
  };
  setup();
  const auto nodes = static_cast<std::uint32_t>(hb->num_nodes());
  ctx.manifest["instance"] = "\"HB(3,5)\"";
  ctx.manifest["trials"] = std::to_string(specs.size());
  ctx.manifest["campaign_seed"] = std::to_string(cfg.seed);
  ctx.manifest["campaign_threads"] = std::to_string(cfg.threads);

  // Thread-count contract: the serial campaign's CSV is the reference every
  // measured call must reproduce byte for byte.
  camp::CampaignConfig serial = cfg;
  serial.threads = 1;
  camp::CampaignResult ref;
  timed(tr, true, "campaign.run_campaign[threads=1]",
        [&] { ref = camp::run_campaign(serial); });
  const std::string ref_csv = campaign_csv(ref);
  for (const camp::TrialResult& r : ref.trials) {
    out.attempted += r.injected;
    out.failed += r.injected - r.delivered;
  }

  double hops = 0.0;
  for (const camp::TrialSpec& spec : specs) {
    if (spec.repeat != 0) continue;
    const hbnet::obs::Counter* moves =
        ref.metrics.find_counter("sim.packet_moves", cell_labels(spec));
    require(moves != nullptr, "campaign registry lacks sim.packet_moves");
    hops += static_cast<double>(moves->value());
  }

  std::vector<double> traced_s, untraced_s;
  std::optional<camp::CampaignResult> last;
  const std::vector<double> call_s =
      repeat_for(ctx.seconds, ctx.trace ? 4 : 2, [&](unsigned i) {
        const bool traced = ctx.trace && i % 2 == 0;
        setup();
        const double dt = timed(tr, traced, "campaign.run_campaign",
                                [&] { last = camp::run_campaign(cfg); });
        require(campaign_csv(*last) == ref_csv,
                "campaign CSV differs between 1 and " +
                    std::to_string(cfg.threads) + " threads");
        (traced ? traced_s : untraced_s).push_back(dt);
        return dt;
      });

  if (!ctx.trace) {
    add_end_to_end(out, setup_s, call_s,
                   std::vector<double>(call_s.size(), hops));
    return out;
  }

  const double csv_s = timed(tr, true, "campaign.write_campaign_csv",
                             [&] { (void)campaign_csv(*last); });

  // Replay: every TrialSpec through the public simulator calls, serially;
  // each replayed trial's counts must equal run_campaign's.
  std::vector<double> trial_s;
  double faulted_s = 0.0, total_s = 0.0;
  std::uint64_t route_calls = 0;
  {
    const Scope replay(tr, "campaign.replay");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const camp::TrialSpec& spec = specs[i];
      const TrialInputs in = trial_inputs(cfg, spec, ranking, nodes);
      hbnet::SimStats s;
      const double dt = timed(tr, true, "sim.run_simulation", [&] {
        s = spec.model == camp::FaultModel::kEvents
                ? hbnet::run_simulation_with_fault_events(*topo, in.sim,
                                                          in.events)
                : hbnet::run_simulation(*topo, in.sim, in.mask);
      });
      const camp::TrialResult& r = ref.trials[i];
      require(s.injected() == r.injected && s.delivered() == r.delivered &&
                  s.dropped() == r.dropped,
              "replayed trial " + std::to_string(i) +
                  " differs from run_campaign");
      trial_s.push_back(dt);
      total_s += dt;
      if (spec.fault_count > 0) faulted_s += dt;
      if (statically_faulted(spec)) route_calls += r.injected;
    }
  }

  hbnet::obs::Histogram latency;
  for (const camp::TrialSpec& spec : specs) {
    if (spec.repeat != 0) continue;
    const hbnet::obs::Histogram* h =
        ref.metrics.find_histogram("sim.packet_latency", cell_labels(spec));
    require(h != nullptr, "campaign registry lacks sim.packet_latency");
    latency.merge(*h);
  }

  // The 1-thread time for par.speedup comes from warm reruns: the reference
  // call above was the process's first.
  std::vector<double> serial_s;
  for (unsigned rep = 0; rep < kSerialReruns; ++rep) {
    camp::CampaignResult r;
    serial_s.push_back(timed(tr, true, "campaign.run_campaign[threads=1]",
                             [&] { r = camp::run_campaign(serial); }));
    require(campaign_csv(r) == ref_csv,
            "campaign CSV differs between 1-thread runs");
  }
  const double t1 = median(serial_s);
  const double run_s = median(call_s);
  const double call = median(traced_s);
  out.add("campaign.enumerate_s", median(enumerate_s), "s");
  out.add("campaign.adversarial_ranking_s", median(ranking_s), "s");
  out.add("campaign.run_s", call, "s");
  out.add("campaign.trials_per_s", static_cast<double>(specs.size()) / run_s,
          "1/s");
  out.add("campaign.trial_s_p50", median(trial_s), "s");
  const double trial_max = *std::max_element(trial_s.begin(), trial_s.end());
  out.add("campaign.trial_s_max", trial_max, "s");
  out.add("campaign.trial_imbalance",
          trial_max / (total_s / static_cast<double>(trial_s.size())),
          "ratio");
  out.add("campaign.faulted_time_share", faulted_s / total_s, "ratio");
  out.add("campaign.write_csv_s", csv_s, "s");
  out.add("sim.latency_p50_cycles", histogram_quantile(latency, 0.5),
          "cycles");
  out.add("sim.latency_p99_cycles", histogram_quantile(latency, 0.99),
          "cycles");
  out.add("sim.topology.build_s", median(topo_s), "s");
  out.add("core.hyper_butterfly.build_s", median(hb_s), "s");
  out.add("core.route_around_faults.calls", static_cast<double>(route_calls),
          "count");
  out.add("par.speedup.campaign_faults", t1 / run_s, "x");
  out.add("par.efficiency.campaign_faults", t1 / run_s / cfg.threads, "ratio");
  out.add("obs.trace_overhead_frac.campaign_faults",
          call / median(untraced_s) - 1.0, "ratio");

  probe_wormhole(tr, ctx, out);

  // core and sim-adapter probes on the statically faulted trials' own
  // fault sets and first packets.
  const Scope probe(tr, "probe.core.fault_routing");
  double route_s = 0.0, avoid_s = 0.0, disjoint_s = 0.0;
  std::uint64_t calls = 0, paths_tried = 0;
  bool all_ok = true;
  for (const camp::TrialSpec& spec : specs) {
    if (!statically_faulted(spec)) continue;
    const TrialInputs in = trial_inputs(cfg, spec, ranking, nodes);
    hbnet::HbFaultSet set;
    for (std::uint32_t v = 0; v < nodes; ++v) {
      if (in.mask[v]) set.add(*hb, hb->node_at(v));
    }
    const auto pairs = trial_pairs(in, nodes);
    route_s += timed(tr, true, "core.route_around_faults", [&] {
      for (const auto& [src, dst] : pairs) {
        const hbnet::FaultRouteResult r = hbnet::route_around_faults(
            *hb, hb->node_at(src), hb->node_at(dst), set,
            /*bfs_fallback=*/false);
        all_ok = all_ok && r.ok();
        paths_tried += r.paths_tried;
      }
    });
    avoid_s += timed(tr, true, "sim.route_avoiding", [&] {
      for (const auto& [src, dst] : pairs) {
        all_ok = topo->route_avoiding(src, dst, in.mask).ok() && all_ok;
      }
    });
    disjoint_s += timed(tr, true, "core.disjoint_paths", [&] {
      for (const auto& [src, dst] : pairs) {
        all_ok = hb->disjoint_paths(hb->node_at(src), hb->node_at(dst))
                         .size() == kM + 4 &&
                 all_ok;
      }
    });
    calls += pairs.size();
  }
  require(all_ok, "fault routing failed with m+3 node faults");
  const auto n = static_cast<double>(calls);
  out.add("core.route_around_faults.us_per_call", route_s * 1e6 / n, "us");
  out.add("core.route_around_faults.paths_tried_per_call",
          static_cast<double>(paths_tried) / n, "count");
  out.add("core.disjoint_paths.us_per_call", disjoint_s * 1e6 / n, "us");
  out.add("sim.route_avoiding.us_per_call", avoid_s * 1e6 / n, "us");
  probe_par_dispatch(tr, ctx.threads, out);
  return out;
}

}  // namespace hbbench
