// hbnet command-line tool: inspect hyper-butterfly instances, compute
// routes and disjoint paths, export DOT/edge lists, run quick analyses,
// drive the packet/wormhole simulators with full telemetry export, and run
// deterministic fault-injection campaigns.
//
// Run it without arguments for the usage text. That text is generated from
// the flag table kFlags below, which is also the only argv parser: each row
// names a flag, the Options field it sets (its type is the value kind), the
// commands that accept it and its help line. A flag its command does not
// use is an error, never silently ignored; the diagnostic names the
// commands that do accept it.
//
// Live telemetry (the stream flags) is a read-only observer: results stay
// byte-identical with it on or off (tools/test_stream_determinism.sh
// enforces it).
//
// Every numeric argv token goes through campaign/grid.hpp's checked
// parsers: a malformed or partial token ("4x", "", "1e999") prints a
// diagnostic and the usage and exits nonzero instead of dying on an
// uncaught std::stoul exception.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/cuts.hpp"
#include "campaign/campaign.hpp"
#include "campaign/grid.hpp"
#include "core/hyper_butterfly.hpp"
#include "distsim/leader_election.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/io.hpp"
#include "graph/parallel_bfs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "obs/snapshot.hpp"
#include "par/pool.hpp"
#include "topology/hb_implicit.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/wormhole.hpp"

namespace {

namespace camp = hbnet::campaign;
using hbnet::HbIndex;
using hbnet::HbNode;
using hbnet::HyperButterfly;

/// The flag-taking commands, one bit each. kExact is `analyze` switched
/// into the exact-connectivity sweep by the flag row that `selects` it.
enum Scope : unsigned {
  kAnalyze = 1u << 0,
  kExact = 1u << 1,
  kWormhole = 1u << 2,
  kSim = 1u << 3,
  kCampaign = 1u << 4,
};
constexpr unsigned kRuns = kWormhole | kSim;
constexpr unsigned kTelemetry = kExact | kRuns | kCampaign;

/// Sentinel for "flag not given, keep the engine's default".
constexpr std::uint64_t kFlagUnset = ~std::uint64_t{0};

/// Everything a flag can set, for every command.
struct Options {
  unsigned cmd = 0;  // the command's Scope bit, before any `selects`
  // analyze
  bool audit = false;
  bool exact = false;  // selects kExact (parse_flags returns the scope)
  std::string checkpoint;
  std::uint64_t max_blocks = 0;  // 0 = run to completion
  // wormhole / sim
  double rate = 0.05;
  std::uint64_t cycles = 400;
  std::uint64_t warmup = kFlagUnset;
  std::uint64_t drain = kFlagUnset;
  std::uint64_t seed = 42;
  hbnet::TrafficPattern pattern = hbnet::TrafficPattern::kUniform;
  unsigned vcs = 6;
  unsigned flits = 4;
  hbnet::VcPolicy policy = hbnet::VcPolicy::kSegmentDateline;
  // Wormhole static faults, derived from the seed exactly the way campaign
  // trials derive theirs (campaign::derived_fault_nodes / _links).
  unsigned faults = 0;
  unsigned link_faults = 0;
  bool valiant = false;
  std::optional<unsigned> shards;  // given: the sharded engine (0 = per worker)
  std::string trace_out, links_csv;
  // campaign (the grid; --seed, --cycles and --faults land here too)
  camp::CampaignConfig campaign;
  std::string csv;
  // shared: threads, metrics, live telemetry
  unsigned threads = 0;  // 0 = par::default_threads()
  std::string metrics_out;
  std::string stream_out, prom_out;
  std::uint64_t stream_interval_ms = 200;
  bool progress = false;
};

/// One flag's value token, with checked conversions that name the flag and
/// the token on failure.
struct Arg {
  std::string_view flag;
  std::string_view text;

  bool fail(std::string_view expected) const {
    std::cerr << flag << ": expected " << expected << ", got '" << text
              << "'\n";
    return false;
  }
  template <class T, class Parse>
  bool parse(T& out, Parse parser, std::string_view expected) const {
    std::optional<T> v = parser(text);
    if (!v) return fail(expected);
    out = std::move(*v);
    return true;
  }
  bool get(std::uint64_t& out) const {
    return parse(out, camp::parse_u64, "a non-negative integer");
  }
  bool get(unsigned& out) const {
    return parse(out, camp::parse_unsigned, "a non-negative integer");
  }
  bool get(double& out) const {
    return parse(out, camp::parse_double, "a finite number");
  }
  bool get(std::string& out) const {
    out = text;
    return true;
  }
  template <class E>
  bool choose(
      E& out,
      std::initializer_list<std::pair<std::string_view, E>> names) const {
    std::string expected;
    for (const auto& [name, value] : names) {
      if (text == name) {
        out = value;
        return true;
      }
      expected += (expected.empty() ? "" : "|") + std::string(name);
    }
    return fail(expected);
  }
};

/// "random,events" -> fault models; nullopt on any unknown name.
std::optional<std::vector<camp::FaultModel>> parse_models(
    std::string_view text) {
  std::vector<camp::FaultModel> models;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::optional<camp::FaultModel> model =
        camp::fault_model_from_name(text.substr(0, comma));
    if (!model) return std::nullopt;
    models.push_back(*model);
    if (comma == std::string_view::npos) return models;
    text.remove_prefix(comma + 1);
  }
}

using Setter = bool (*)(Options&, const Arg&);
/// The field a flag sets; a bool field makes it a value-less switch.
using Target = std::variant<bool Options::*, std::uint64_t Options::*,
                            unsigned Options::*, double Options::*,
                            std::string Options::*, Setter>;

struct Flag {
  std::string_view name;
  Target target;
  unsigned scope;          // Scope bits of the commands that accept it
  std::string_view value;  // value placeholder in usage(); empty = switch
  std::string_view help;
  unsigned selects = 0;  // Scope an accepting command switches into
};

const Flag kFlags[] = {
    {"--audit", &Options::audit, kAnalyze, "",
     "also verify Theorem 5 on all vertex pairs"},
    {"--exact-connectivity", &Options::exact, kAnalyze | kExact, "",
     "checkpointed Even-Tarjan sweep proving kappa = m+4", kExact},
    {"--checkpoint", &Options::checkpoint, kExact, "FILE",
     "resumable sweep checkpoint"},
    {"--max-blocks", &Options::max_blocks, kExact, "N",
     "stop after N blocks (resume via the checkpoint)"},
    {"--rate", &Options::rate, kRuns, "R",
     "injection rate per node and cycle (default 0.05)"},
    {"--cycles",
     +[](Options& o, const Arg& a) {
       if (!a.get(o.cycles)) return false;
       o.campaign.sim.measure_cycles = o.cycles;
       o.campaign.wormhole.measure_cycles = o.cycles;
       return true;
     },
     kRuns | kCampaign, "C",
     "measurement cycles (default 400; campaign: per trial)"},
    {"--warmup", &Options::warmup, kRuns, "W", "warm-up cycles"},
    {"--drain", &Options::drain, kRuns, "D", "drain cycles"},
    {"--seed",
     +[](Options& o, const Arg& a) {
       return a.get(o.cmd == kCampaign ? o.campaign.seed : o.seed);
     },
     kRuns | kCampaign, "S",
     "run seed (default 42; campaign: master seed, 1)"},
    {"--pattern",
     +[](Options& o, const Arg& a) {
       using P = hbnet::TrafficPattern;
       return a.choose(o.pattern, {{"uniform", P::kUniform},
                                   {"complement", P::kBitComplement},
                                   {"reversal", P::kBitReversal},
                                   {"shuffle", P::kShuffle},
                                   {"hotspot", P::kHotspot}});
     },
     kRuns, "P", "uniform|complement|reversal|shuffle|hotspot"},
    {"--vcs", &Options::vcs, kWormhole, "V",
     "virtual channels per link (default 6)"},
    {"--flits", &Options::flits, kWormhole, "F",
     "flits per packet (default 4)"},
    {"--policy",
     +[](Options& o, const Arg& a) {
       using V = hbnet::VcPolicy;
       return a.choose(o.policy, {{"any", V::kAnyFree},
                                  {"dateline", V::kDateline},
                                  {"segment", V::kSegmentDateline},
                                  {"adaptive", V::kFaultAdaptive}});
     },
     kWormhole, "P", "VC policy any|dateline|segment|adaptive"},
    {"--faults",
     +[](Options& o, const Arg& a) {
       if (o.cmd != kCampaign) return a.get(o.faults);
       return a.parse(o.campaign.fault_counts, camp::parse_unsigned_list,
                      "comma-separated non-negative integers");
     },
     kWormhole | kCampaign, "K",
     "wormhole: K node faults from the seed (needs\n"
     "adaptive policy); campaign: K1,K2 per cell"},
    {"--link-faults", &Options::link_faults, kWormhole, "K",
     "K static directed link faults (adaptive policy)"},
    {"--valiant", &Options::valiant, kSim, "", "Valiant two-phase routing"},
    {"--shards",
     +[](Options& o, const Arg& a) { return a.get(o.shards.emplace()); },
     kSim, "S",
     "sharded synchronous engine, S shards (0 = one\n"
     "per worker); identical for every threads x shards"},
    {"--trace-out", &Options::trace_out, kRuns, "FILE",
     "Chrome trace JSON (chrome://tracing, Perfetto)"},
    {"--links-csv", &Options::links_csv, kRuns, "FILE",
     "per-link utilization CSV"},
    {"--models",
     +[](Options& o, const Arg& a) {
       return a.parse(o.campaign.models, parse_models,
                      "comma-separated random|adversarial|events|links");
     },
     kCampaign, "M1,M2",
     "fault models (default random; events is sf-only,\n"
     "links wormhole-only)"},
    {"--rates",
     +[](Options& o, const Arg& a) {
       return a.parse(o.campaign.rates, camp::parse_double_list,
                      "comma-separated numbers");
     },
     kCampaign, "R1,R2", "injection rates in (0,1] (default 0.05)"},
    {"--trials",
     +[](Options& o, const Arg& a) { return a.get(o.campaign.trials); },
     kCampaign, "T", "repeats per grid cell (default 1)"},
    {"--engine",
     +[](Options& o, const Arg& a) {
       return a.parse(o.campaign.engine, camp::engine_from_name,
                      "sf|wormhole");
     },
     kCampaign, "sf|wormhole", "simulator (default sf)"},
    {"--csv", &Options::csv, kCampaign, "FILE", "per-cell summary CSV"},
    {"--threads", &Options::threads, kAnalyze | kExact | kSim | kCampaign,
     "N", "worker threads (0 = default); results invariant"},
    {"--metrics-out", &Options::metrics_out, kTelemetry, "FILE",
     "metrics JSON"},
    {"--stream-out", &Options::stream_out, kTelemetry, "FILE",
     "live NDJSON snapshot stream, plus FILE.prom"},
    {"--prom-out", &Options::prom_out, kTelemetry, "FILE",
     "Prometheus text exposition path"},
    {"--stream-interval-ms", &Options::stream_interval_ms, kTelemetry, "MS",
     "snapshot interval (default 200)"},
    {"--progress", &Options::progress, kTelemetry, "",
     "single rewriting status line on stderr"},
};

std::string scope_name(unsigned bit) {
  for (const Flag& f : kFlags) {
    if (f.selects == bit) return "analyze " + std::string(f.name);
  }
  switch (bit) {
    case kAnalyze:
      return "analyze";
    case kWormhole:
      return "wormhole";
    case kSim:
      return "sim";
    default:
      return "campaign";
  }
}

std::string accepted_by(const Flag& f) {
  std::string names;
  for (unsigned bit = kAnalyze; bit <= kCampaign; bit <<= 1) {
    if ((f.scope & bit) == 0 || bit == f.selects) continue;
    names += (names.empty() ? "" : ", ") + scope_name(bit);
  }
  return names;
}

int usage() {
  std::cerr
      << "usage: hbnet_cli <command> <m> <n> [args]\n"
         "  info <m> <n>                   structural summary\n"
         "  route <m> <n> <src> <dst>      optimal route between dense ids\n"
         "  disjoint <m> <n> <src> <dst>   the m+4 disjoint paths (Thm 5)\n"
         "  label <m> <n> <id>             Cayley symbol label of a vertex\n"
         "  dot <m> <n> [file]             Graphviz export\n"
         "  edges <m> <n> [file]           edge-list export\n"
         "  cuts <m> <n>                   dimension cuts / bisection bound\n"
         "  election <m> <n>               run both leader elections\n"
         "  analyze <m> <n> [flags]        parallel structural analysis\n"
         "  wormhole <m> <n> [flags]       flit-level wormhole run on HB(m,n)\n"
         "  sim <m> <n> [flags]            store-and-forward run on HB(m,n)\n"
         "  campaign <m> <n> [flags]       deterministic fault-injection\n"
         "                                 campaign over the thread pool\n"
         "flags (a flag its command does not use is an error):\n";
  constexpr std::size_t kColumn = 28;
  const std::string indent(kColumn, ' ');
  for (const Flag& f : kFlags) {
    std::string head = "  " + std::string(f.name);
    if (!f.value.empty()) head += " " + std::string(f.value);
    const std::size_t pad = kColumn - std::min(head.size(), kColumn - 1);
    std::cerr << head << std::string(pad, ' ');
    for (const char c : f.help) {
      std::cerr << c;
      if (c == '\n') std::cerr << indent;
    }
    std::cerr << "\n" << indent << "[" << accepted_by(f) << "]\n";
  }
  return 2;
}

const Flag* find_flag(std::string_view name) {
  for (const Flag& f : kFlags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// Parses argv[first..] into `o` for command `cmd`, whose Scope bit is
/// `scope` (0 for a command that takes no flags). Returns the final scope,
/// or nullopt after a diagnostic on stderr.
std::optional<unsigned> parse_flags(int argc, char** argv, int first,
                                    std::string_view cmd, unsigned scope,
                                    Options& o) {
  o.cmd = scope;
  std::vector<const Flag*> given;
  for (int i = first; i < argc; ++i) {
    const Flag* f = find_flag(argv[i]);
    if (f == nullptr) {
      std::cerr << "unknown option " << argv[i] << "\n";
      return std::nullopt;
    }
    Arg arg{f->name, {}};
    if (!f->value.empty()) {
      if (i + 1 >= argc) {
        std::cerr << f->name << " needs a value\n";
        return std::nullopt;
      }
      arg.text = argv[++i];
    }
    const bool ok = std::visit(
        [&](auto target) {
          using T = decltype(target);
          if constexpr (std::is_same_v<T, Setter>) {
            return target(o, arg);
          } else if constexpr (std::is_same_v<T, bool Options::*>) {
            o.*target = true;
            return true;
          } else {
            return arg.get(o.*target);
          }
        },
        f->target);
    if (!ok) return std::nullopt;
    if (f->selects != 0 && (f->scope & o.cmd) != 0) scope = f->selects;
    given.push_back(f);
  }
  // Checked after the loop: a flag that selects a scope may come last.
  for (const Flag* f : given) {
    if ((f->scope & scope) != 0) continue;
    std::cerr << f->name << ": not used by "
              << (scope != 0 ? scope_name(scope) : std::string(cmd))
              << " (accepted by " << accepted_by(*f) << ")\n";
    return std::nullopt;
  }
  return scope;
}

/// Writes one artifact to `path` through `writer` and confirms it on stdout
/// as `<label><path><note>`. An empty path writes nothing; false (with a
/// diagnostic) when the file cannot be opened.
template <class Writer>
bool write_file(const std::string& path, std::string_view label,
                Writer&& writer, const std::string& note = {}) {
  if (path.empty()) return true;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  writer(os);
  std::cout << label << path << note << "\n";
  return true;
}

/// Single rewriting status line on stderr, sampling a ProgressBoard at
/// ~10 Hz from its own thread. Shows unlabeled slots only (per-cell slots
/// would overflow one line); stop() renders the final state and moves to
/// a fresh line. Tools scope: wall-clock pacing is fine here.
class ProgressLine {
 public:
  explicit ProgressLine(const hbnet::obs::ProgressBoard& board)
      : board_(board), thread_([this] { run(); }) {}
  ~ProgressLine() { stop(); }
  ProgressLine(const ProgressLine&) = delete;
  ProgressLine& operator=(const ProgressLine&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    render();
    std::fputc('\n', stderr);
    std::fflush(stderr);
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100),
                   [this] { return stopped_; });
      if (stopped_) break;
      lock.unlock();
      render();
      lock.lock();
    }
  }

  void render() {
    std::string line;
    for (const auto& [name, value] : board_.sample()) {
      if (name.find('{') != std::string::npos) continue;  // labeled slots
      if (!line.empty()) line += "  ";
      line += name + "=" + std::to_string(value);
    }
    // \r + erase-to-end keeps it a single rewriting line on a TTY.
    std::fprintf(stderr, "\r\033[K%s", line.c_str());
    std::fflush(stderr);
  }

  const hbnet::obs::ProgressBoard& board_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// The live-telemetry attachments of one run: the progress board the
/// engine writes into, plus (when requested) the Snapshotter exporting it
/// to files and/or the TTY status line. Everything here observes; the
/// engine result is byte-identical whether streaming is on or off.
struct Streaming {
  hbnet::obs::ProgressBoard board;
  std::unique_ptr<hbnet::obs::Snapshotter> snapshotter;
  std::unique_ptr<ProgressLine> line;

  ~Streaming() { stop(); }

  void start(const Options& o, const char* job) {
    if (!o.stream_out.empty() || !o.prom_out.empty()) {
      hbnet::obs::SnapshotterOptions opts;
      opts.stream_path = o.stream_out;
      opts.prom_path = !o.prom_out.empty()
                           ? o.prom_out
                           : (o.stream_out.empty() ? std::string()
                                                   : o.stream_out + ".prom");
      opts.interval_ms = o.stream_interval_ms;
      opts.job = job;
      snapshotter =
          std::make_unique<hbnet::obs::Snapshotter>(board, std::move(opts));
      snapshotter->start();
    }
    if (o.progress) line = std::make_unique<ProgressLine>(board);
  }

  /// The board when any surface is active, else nullptr -- so engines see
  /// a null progress pointer (and skip all slot work) on plain runs.
  [[nodiscard]] hbnet::obs::ProgressBoard* board_or_null() {
    return (snapshotter != nullptr || line != nullptr) ? &board : nullptr;
  }

  void stop() {
    if (line) line->stop();
    if (snapshotter) snapshotter->stop();
    line.reset();
    snapshotter.reset();
  }
};

/// Writes the sink's exports to the files requested by the flags.
/// Returns false on I/O failure.
bool export_sink(const hbnet::obs::Sink& sink, const Options& o) {
  std::string trace_note;
  if (!o.trace_out.empty()) {
    if (sink.trace() == nullptr) return false;
    trace_note = " (" + std::to_string(sink.trace()->size()) + " events";
    if (sink.trace()->dropped() > 0) {
      trace_note += ", " + std::to_string(sink.trace()->dropped()) +
                    " dropped at capacity";
    }
    trace_note += ")";
  }
  return write_file(o.trace_out, "trace:   ",
                    [&](std::ostream& os) {
                      sink.trace()->write_json(os);
                      os << '\n';
                    },
                    trace_note) &&
         write_file(o.metrics_out, "metrics: ",
                    [&](std::ostream& os) {
                      sink.write_metrics_json(os);
                      os << '\n';
                    },
                    " (" + std::to_string(sink.links().size()) + " links)") &&
         write_file(o.links_csv, "links:   ", [&](std::ostream& os) {
           sink.write_links_csv(os);
           os << '\n';
         });
}

void print_node(const HyperButterfly& hb, HbNode v) {
  std::cout << "(" << v.cube << ",'" << hb.butterfly().label(v.bfly) << "')";
}

/// `analyze --exact-connectivity`: checkpointed Even-Tarjan sweep over the
/// HB(m,n) graph, single-source schedule (HB is a Cayley graph, hence
/// vertex transitive). Exit 0 only when the proven kappa equals the
/// Corollary-1 value m+4.
int run_exact_connectivity(const HyperButterfly& hb, const Options& o) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  hbnet::obs::MetricsRegistry metrics;

  // Generator-arithmetic adjacency: O(1) memory for the topology itself.
  // Flows run on the full graph -- HB is (m+4)-regular with kappa = m+4, so
  // a Nagamochi-Ibaraki k-certificate at k = kappa would be every edge.
  const hbnet::HbImplicitAdjacency adj(m, n);
  std::cout << "exact connectivity HB(" << m << "," << n << ")  "
            << adj.num_nodes() << " nodes, " << adj.num_edges()
            << " edges  (" << hbnet::par::resolve_threads(0)
            << " threads, adjacency " << adj.describe()
            << ", orbit schedule)\n";

  Streaming streaming;
  streaming.start(o, "connectivity");

  hbnet::SweepOptions opts;
  opts.vertex_transitive = true;  // Cayley graph: single-source is exact
  opts.max_blocks = o.max_blocks;
  // Cube-bit permutations are automorphisms fixing vertex 0, so targets
  // collapse to one representative per cube popcount class.
  opts.orbit_rep = [m, n](hbnet::NodeId v) {
    return hbnet::hb_cube_orbit_representative(m, n, v);
  };
  opts.checkpoint_path = o.checkpoint;
  opts.metrics = &metrics;
  opts.progress = streaming.board_or_null();
  opts.on_block = [](const hbnet::SweepState& st,
                     std::uint32_t stage_blocks) {
    std::cout << "  stage " << st.stages_done << " block " << st.blocks_done
              << "/" << stage_blocks << "  bound " << st.bound << "  solves "
              << st.solves << "  pruned " << st.pruned << "\n";
  };
  hbnet::ConnectivitySweep sweep(adj, opts);
  if (sweep.resumed()) {
    const hbnet::SweepState& st = sweep.state();
    std::cout << "  resumed from " << o.checkpoint << " at stage "
              << st.stages_done << " block " << st.blocks_done << " (solves "
              << st.solves << ", pruned " << st.pruned << ")\n";
  } else if (!sweep.resume_note().empty()) {
    std::cout << "  checkpoint not resumed: " << sweep.resume_note() << "\n";
  }

  const auto start = std::chrono::steady_clock::now();
  hbnet::ExactConnectivityResult r = sweep.run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  streaming.stop();

  if (!write_file(o.metrics_out, "  metrics: ", [&](std::ostream& os) {
        metrics.write_json(os);
        os << '\n';
      })) {
    return 1;
  }
  if (!o.checkpoint.empty()) {
    std::cout << "  checkpoint: " << o.checkpoint << "\n";
  }
  if (!r.complete) {
    std::cout << "  stopped before completion (resume with the same "
                 "--checkpoint file)\n";
    return 1;
  }
  std::cout << "  kappa = " << r.kappa << "  (" << r.stages << " source"
            << (r.stages == 1 ? "" : "s") << ", " << r.solves << " solves, "
            << r.pruned << " pruned, " << secs << " s)\n";
  if (r.kappa != hb.degree()) {
    std::cerr << "FAILED: kappa " << r.kappa << " != degree " << hb.degree()
              << " (Corollary 1)\n";
    return 1;
  }
  std::cout << "  Corollary 1 verified: kappa = m+4 = " << hb.degree()
            << "\n";
  return 0;
}

int run_analyze(const HyperButterfly& hb, const Options& o) {
  hbnet::Graph g = hb.to_graph();
  std::cout << "analyze HB(" << hb.cube_dimension() << ","
            << hb.butterfly_dimension() << ")  ("
            << hbnet::par::resolve_threads(0) << " threads)\n"
            << "  nodes / edges:     " << g.num_nodes() << " / "
            << g.num_edges() << "\n"
            << "  diameter:          " << hbnet::parallel_diameter(g)
            << "  (formula " << hb.diameter_formula() << ")\n"
            << "  average distance:  "
            << hbnet::parallel_average_distance(g) << "\n"
            << "  vertex connectivity: " << hbnet::vertex_connectivity(g)
            << "  (degree " << hb.degree() << ")\n"
            << "  edge connectivity:   " << hbnet::edge_connectivity(g)
            << "\n";
  if (o.audit) {
    hbnet::DisjointPathsAudit a = hbnet::audit_disjoint_paths(hb);
    std::cout << "  Theorem-5 audit:   " << a.pairs_checked << " pairs, "
              << (a.ok ? "all families disjoint" : "FAILED: " + a.error)
              << "\n";
    if (!a.ok) return 1;
  }
  return 0;
}

int run_wormhole_cmd(unsigned m, unsigned n, const Options& o) {
  hbnet::obs::Sink sink;
  if (!o.trace_out.empty()) sink.enable_trace();
  auto topo = hbnet::make_hyper_butterfly_sim(m, n);
  hbnet::WormholeConfig cfg;
  cfg.vcs = o.vcs;
  cfg.flits_per_packet = o.flits;
  cfg.injection_rate = o.rate;
  cfg.measure_cycles = o.cycles;
  if (o.warmup != kFlagUnset) cfg.warmup_cycles = o.warmup;
  if (o.drain != kFlagUnset) cfg.drain_cycles = o.drain;
  cfg.seed = o.seed;
  cfg.pattern = o.pattern;
  cfg.policy = o.policy;
  // Static faults, derived from the run seed the same way campaign trials
  // derive theirs: node ids from the fault stream (stream 1 of the
  // splittable counter), link picks from an independent stream.
  hbnet::WormholeFaults wf;
  if (o.faults > 0 || o.link_faults > 0) {
    const std::uint64_t fault_seed = camp::split_seed(o.seed, 0, 1);
    if (o.faults > 0) {
      if (o.faults >= topo->num_nodes()) {
        std::cerr << "--faults: must be < num nodes (" << topo->num_nodes()
                  << ")\n";
        return 1;
      }
      wf.nodes.assign(topo->num_nodes(), 0);
      for (const std::uint32_t v : camp::derived_fault_nodes(
               fault_seed, topo->num_nodes(), o.faults)) {
        wf.nodes[v] = 1;
      }
    }
    if (o.link_faults > 0) {
      if (o.link_faults >= topo->num_nodes()) {
        std::cerr << "--link-faults: must be < num nodes ("
                  << topo->num_nodes() << ")\n";
        return 1;
      }
      wf.links = camp::derived_fault_links(fault_seed, *topo, o.link_faults);
    }
    if (cfg.policy != hbnet::VcPolicy::kFaultAdaptive) {
      std::cerr << "--faults/--link-faults need --policy adaptive (vcs >= "
                << hbnet::vc_classes(hbnet::VcPolicy::kFaultAdaptive)
                << ")\n";
      return 1;
    }
  }
  Streaming streaming;
  streaming.start(o, "wormhole");
  // The butterfly level coordinate is node id mod n: the ring arity the
  // dateline VC classes are computed from.
  hbnet::WormholeStats s =
      hbnet::run_wormhole(*topo, cfg, n, wf.any() ? &wf : nullptr, &sink,
                          streaming.board_or_null());
  streaming.stop();
  std::cout << "wormhole HB(" << m << "," << n << ") " << topo->num_nodes()
            << " nodes, rate " << o.rate << ", " << s.cycles << " cycles"
            << (s.deadlocked ? " [DEADLOCK]" : "") << "\n  "
            << s.packets.summary() << "\n  p50="
            << s.packets.latency_percentile(0.5)
            << " max=" << s.packets.max_latency() << "\n";
  if (wf.any()) {
    std::cout << "  faults: " << o.faults << " nodes, " << o.link_faults
              << " links; misroutes=" << s.misroutes
              << " escape_hops=" << s.escape_hops
              << " unroutable=" << s.unroutable << "\n";
  }
  if (!export_sink(sink, o)) return 1;
  return s.deadlocked ? 1 : 0;
}

int run_sim(const HyperButterfly& hb, const Options& o) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  hbnet::obs::Sink sink;
  if (!o.trace_out.empty()) sink.enable_trace();
  hbnet::SimConfig cfg;
  cfg.injection_rate = o.rate;
  cfg.measure_cycles = o.cycles;
  if (o.warmup != kFlagUnset) cfg.warmup_cycles = o.warmup;
  if (o.drain != kFlagUnset) cfg.drain_cycles = o.drain;
  cfg.seed = o.seed;
  cfg.pattern = o.pattern;
  cfg.routing =
      o.valiant ? hbnet::RoutingMode::kValiant : hbnet::RoutingMode::kNative;
  // Telemetry aggregation is pay-for-what-you-watch: skip it entirely when
  // nothing will be exported (at 10^6+ nodes the link/occupancy tables
  // dominate an otherwise interactive run).
  hbnet::obs::Sink* sink_ptr =
      !o.trace_out.empty() || !o.metrics_out.empty() || !o.links_csv.empty()
          ? &sink
          : nullptr;
  Streaming streaming;
  streaming.start(o, "sim");
  hbnet::SimStats s;
  if (o.shards) {
    s = hbnet::run_simulation_sharded(hb, cfg, *o.shards, 0, sink_ptr,
                                      streaming.board_or_null());
  } else {
    auto topo = hbnet::make_hyper_butterfly_sim(m, n);
    s = hbnet::run_simulation(*topo, cfg, {}, sink_ptr,
                              streaming.board_or_null());
  }
  streaming.stop();
  std::cout << "sim HB(" << m << "," << n << ") " << hb.num_nodes()
            << " nodes, rate " << o.rate << "\n  " << s.summary()
            << "\n  p50=" << s.latency_percentile(0.5)
            << " max=" << s.max_latency() << "\n";
  return export_sink(sink, o) ? 0 : 1;
}

int run_campaign_cmd(unsigned m, unsigned n, Options& o) {
  camp::CampaignConfig& cfg = o.campaign;
  cfg.m = m;
  cfg.n = n;
  Streaming streaming;
  streaming.start(o, "campaign");
  const camp::CampaignResult result =
      camp::run_campaign(cfg, streaming.board_or_null());
  streaming.stop();
  std::cout << "campaign HB(" << m << "," << n << ") engine "
            << camp::engine_name(cfg.engine) << ", " << result.trials.size()
            << " trials over " << result.cells.size() << " cells (seed "
            << cfg.seed << ")\n";
  camp::write_campaign_table(std::cout, result);
  const bool ok =
      write_file(o.metrics_out, "metrics: ",
                 [&](std::ostream& os) {
                   result.metrics.write_json(os);
                   os << '\n';
                 }) &&
      write_file(o.csv, "csv:     ", [&](std::ostream& os) {
        camp::write_campaign_csv(os, result);
      });
  return ok ? 0 : 1;
}

}  // namespace

int run(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string cmd = argv[1];
  const std::optional<unsigned> m_arg = camp::parse_unsigned(argv[2]);
  const std::optional<unsigned> n_arg = camp::parse_unsigned(argv[3]);
  if (!m_arg || !n_arg) {
    std::cerr << "m and n must be non-negative integers, got '" << argv[2]
              << "' '" << argv[3] << "'\n";
    return usage();
  }
  const unsigned m = *m_arg;
  const unsigned n = *n_arg;

  // Positional arguments after <m> <n>, then flags in the command's scope.
  int positional = 0;
  unsigned scope = 0;
  if (cmd == "label") {
    positional = 1;
  } else if (cmd == "route" || cmd == "disjoint") {
    positional = 2;
  } else if (cmd == "dot" || cmd == "edges") {
    positional = argc >= 5 ? 1 : 0;
  } else if (cmd == "analyze") {
    scope = kAnalyze;
  } else if (cmd == "wormhole") {
    scope = kWormhole;
  } else if (cmd == "sim") {
    scope = kSim;
  } else if (cmd == "campaign") {
    scope = kCampaign;
  } else if (cmd != "info" && cmd != "cuts" && cmd != "election") {
    return usage();
  }
  if (argc < 4 + positional) return usage();
  Options o;
  const std::optional<unsigned> parsed =
      parse_flags(argc, argv, 4 + positional, cmd, scope, o);
  if (!parsed) return usage();
  scope = *parsed;
  hbnet::par::set_default_threads(o.threads);

  HyperButterfly hb(m, n);
  switch (scope) {
    case kAnalyze:
      return run_analyze(hb, o);
    case kExact:
      return run_exact_connectivity(hb, o);
    case kWormhole:
      return run_wormhole_cmd(m, n, o);
    case kSim:
      return run_sim(hb, o);
    case kCampaign:
      return run_campaign_cmd(m, n, o);
    default:
      break;
  }

  if (cmd == "info") {
    std::cout << "HB(" << m << "," << n << ")\n"
              << "  nodes:            " << hb.num_nodes() << "\n"
              << "  edges:            " << hb.num_edges() << "\n"
              << "  degree (regular): " << hb.degree() << "\n"
              << "  diameter formula: " << hb.diameter_formula()
              << "  (measured: m + floor(3n/2) = " << m + 3 * n / 2 << ")\n"
              << "  connectivity:     " << hb.degree()
              << "  (maximally fault tolerant)\n"
              << "  tolerates any " << hb.degree() - 1 << " node faults\n";
    return 0;
  }
  if (cmd == "label") {
    const std::optional<std::uint64_t> id_arg = camp::parse_u64(argv[4]);
    if (!id_arg) {
      std::cerr << "bad vertex id '" << argv[4] << "'\n";
      return usage();
    }
    HbIndex id = *id_arg;
    if (id >= hb.num_nodes()) {
      std::cerr << "id out of range\n";
      return 1;
    }
    HbNode v = hb.node_at(id);
    std::cout << "id " << id << " = ";
    print_node(hb, v);
    std::cout << "  [cube=" << v.cube << " word=" << v.bfly.word
              << " level=" << v.bfly.level
              << " PI=" << hb.butterfly().permutation_index(v.bfly)
              << " CI=" << hb.butterfly().complementation_index(v.bfly)
              << "]\n";
    return 0;
  }
  if (cmd == "route" || cmd == "disjoint") {
    const std::optional<std::uint64_t> s_arg = camp::parse_u64(argv[4]);
    const std::optional<std::uint64_t> t_arg = camp::parse_u64(argv[5]);
    if (!s_arg || !t_arg) {
      std::cerr << "bad vertex ids '" << argv[4] << "' '" << argv[5]
                << "'\n";
      return usage();
    }
    HbIndex s = *s_arg, t = *t_arg;
    if (s >= hb.num_nodes() || t >= hb.num_nodes() || s == t) {
      std::cerr << "bad endpoints\n";
      return 1;
    }
    HbNode u = hb.node_at(s), v = hb.node_at(t);
    if (cmd == "route") {
      std::cout << "distance " << hb.distance(u, v) << "\n";
      for (const HbNode& w : hb.route(u, v)) {
        print_node(hb, w);
        std::cout << " ";
      }
      std::cout << "\n";
    } else {
      auto family = hb.disjoint_paths(u, v);
      std::cout << family.size() << " internally disjoint paths:\n";
      for (const auto& p : family) {
        std::cout << "  [" << p.size() - 1 << " hops] ";
        for (const HbNode& w : p) {
          print_node(hb, w);
          std::cout << " ";
        }
        std::cout << "\n";
      }
    }
    return 0;
  }
  if (cmd == "dot" || cmd == "edges") {
    std::ofstream file;
    std::ostream* os = &std::cout;
    if (positional == 1) {
      file.open(argv[4]);
      if (!file) {
        std::cerr << "cannot open " << argv[4] << "\n";
        return 1;
      }
      os = &file;
    }
    hbnet::Graph g = hb.to_graph();
    if (cmd == "dot") {
      hbnet::DotOptions opts;
      opts.graph_name = "HB_" + std::to_string(m) + "_" + std::to_string(n);
      for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
        HbNode v = hb.node_at(id);
        opts.labels.push_back(std::to_string(v.cube) + "," +
                              hb.butterfly().label(v.bfly));
      }
      write_dot(*os, g, opts);
    } else {
      write_edge_list(*os, g);
    }
    return 0;
  }
  if (cmd == "cuts") {
    for (const auto& cut : hbnet::hb_dimension_cuts(hb)) {
      std::cout << "  " << cut.name << ": width " << cut.width
                << (cut.balanced ? " (balanced)" : " (unbalanced)") << "\n";
    }
    std::uint64_t ub =
        hbnet::sampled_bisection_upper_bound(hb.to_graph(), 3, 11);
    std::cout << "  sampled bisection upper bound: " << ub
              << "  => Thompson VLSI area lower bound ~ "
              << hbnet::thompson_area_lower_bound(ub) << " grid units\n";
    return 0;
  }
  // election
  auto flood = hbnet::flood_max_election(hb.to_graph());
  auto structured = hbnet::hb_structured_election(hb);
  std::cout << "flood-max:  leader " << flood.leader << ", "
            << flood.run.rounds << " rounds, " << flood.run.messages
            << " messages\n"
            << "structured: leader " << structured.leader << ", "
            << structured.run.rounds << " rounds, "
            << structured.run.messages << " messages\n";
  return 0;
}

int main(int argc, char** argv) {
  // Postmortem triage: an HBNET_CHECK failure or fatal signal dumps the
  // flight recorder's recent engine events (trial/sweep/checkpoint
  // context) to stderr before the process dies.
  hbnet::obs::FlightRecorder::install_crash_dump();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
