// hbbench: runs the hbnet benchmark workloads and prints their metrics.
//
//   hbbench --workload sf_uniform[,kappa_exact,...] --seed N --seconds S
//           --trace 0|1 [--trace-out DIR] [--commit C] [--source-digest D]
//
// For each workload it prints a manifest line ({"manifest":{...}}), in a
// traced run the span tree, and then one result line:
//   {"correct":true,"attempted":A,"failed":F,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (hbbench/README.md). A broken output contract prints the reason on stderr
// and exits 2 without a result line; bad arguments exit 1.
#include <sched.h>

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using hbbench::Context;
using hbbench::Outcome;

struct Args {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

int usage() {
  std::cerr << "usage: hbbench --workload W[,W...] --seed N --seconds S "
               "--trace 0|1 [--trace-out DIR] [--commit C] "
               "[--source-digest D]\n  workloads: sf_uniform "
               "campaign_faults kappa_exact\n";
  return 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        std::stringstream ss(v);
        std::string w;
        while (std::getline(ss, w, ',')) a.workloads.push_back(w);
      } else if (flag == "--seed") {
        std::size_t used = 0;
        a.seed = std::stoull(v, &used);
        if (used != v.size()) return false;
      } else if (flag == "--seconds") {
        std::size_t used = 0;
        a.seconds = std::stod(v, &used);
        if (used != v.size() || !(a.seconds > 0.0)) return false;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else if (flag == "--commit") {
        a.commit = v;
      } else if (flag == "--source-digest") {
        a.source_digest = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workloads.empty();
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string manifest_json(const Args& a, const std::string& workload,
                          const Context& ctx, double steal_frac,
                          double cal_s) {
  std::ostringstream os;
  os << "{\"workload\":" << json_str(workload) << ",\"seed\":" << a.seed
     << ",\"seconds\":" << a.seconds << ",\"trace\":" << (a.trace ? 1 : 0)
     << ",\"threads\":" << ctx.threads << ",\"nproc\":" << nproc()
     << ",\"cpu_model\":" << json_str(cpu_model())
     << ",\"build_type\":" << json_str(HBBENCH_BUILD_TYPE)
     << ",\"hbnet_checks\":" << HBBENCH_CHECKS
     << ",\"hbnet_trace\":" << HBBENCH_TRACE
     << ",\"commit\":" << json_str(a.commit)
     << ",\"source_digest\":" << json_str(a.source_digest)
     << ",\"host_steal_frac\":" << steal_frac
     << ",\"host_cal_s\":" << cal_s;
  for (const auto& [k, v] : ctx.manifest) os << ',' << json_str(k) << ':' << v;
  os << '}';
  return os.str();
}

/// (steal, total) jiffies of all CPUs from /proc/stat; {0, 0} elsewhere.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 8 && cpu == "cpu"; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Host-speed reference: the median time of a fixed single-threaded loop of
/// integer mixing and dependent loads over 1 MiB. No change to hbnet moves
/// it, so when it moves between two sets of runs the host changed speed;
/// the workloads may slow by more than it does.
double host_calibration_s() {
  std::vector<std::uint32_t> table(1u << 18);
  for (std::uint32_t i = 0; i < table.size(); ++i) table[i] = i * 2654435761u;
  std::vector<double> t;
  std::uint32_t x = 1;
  for (int rep = 0; rep < 5; ++rep) {
    const hbbench::Clock::time_point t0 = hbbench::Clock::now();
    for (int i = 0; i < 4000000; ++i) {
      x = table[(x ^ (x >> 7)) & (table.size() - 1)] + x * 2654435761u;
    }
    t.push_back(hbbench::seconds_between(t0, hbbench::Clock::now()));
  }
  volatile std::uint32_t keep = x;
  (void)keep;
  return hbbench::median(t);
}

Outcome dispatch(const std::string& workload, Context& ctx) {
  if (workload == "sf_uniform") return hbbench::run_sf_uniform(ctx);
  if (workload == "campaign_faults") return hbbench::run_campaign_faults(ctx);
  return hbbench::run_kappa_exact(ctx);
}

void print_result(const Outcome& out) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"correct\":true,\"attempted\":"
     << out.attempted << ",\"failed\":" << out.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const hbbench::Metric& m = out.metrics[i];
    os << (i ? "," : "") << json_str(m.name) << ":{\"value\":" << m.value
       << ",\"unit\":" << json_str(m.unit) << '}';
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  for (const std::string& w : args.workloads) {
    if (w != "sf_uniform" && w != "campaign_faults" && w != "kappa_exact") {
      std::cerr << "unknown workload '" << w << "'\n";
      return usage();
    }
  }
  for (const std::string& workload : args.workloads) {
    hbbench::Tracer tracer(args.trace,
                           workload + "/seed" + std::to_string(args.seed));
    Context ctx;
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.trace = args.trace;
    ctx.threads = nproc();
    ctx.tracer = &tracer;
    const double cal_s = host_calibration_s();
    hbbench::reset_peak_rss();
    const auto [steal0, total0] = cpu_jiffies();
    Outcome out;
    try {
      out = dispatch(workload, ctx);
      if (args.trace) {
        const std::string why = tracer.validate();
        hbbench::require(why.empty(), "span tree: " + why);
      }
    } catch (const hbbench::ContractError& e) {
      std::cerr << "hbbench: " << workload << ": contract violated: "
                << e.what() << "\n";
      return 2;
    } catch (const std::exception& e) {
      std::cerr << "hbbench: " << workload << ": " << e.what() << "\n";
      return 2;
    }
    // CPU time the hypervisor gave to other guests while the workload ran:
    // on a shared host, the first thing to read when a timing looks off.
    const auto [steal1, total1] = cpu_jiffies();
    const double steal_frac =
        total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
    const std::string manifest =
        manifest_json(args, workload, ctx, steal_frac, cal_s);
    std::cout << "{\"manifest\":" << manifest << "}\n";
    if (args.trace) {
      tracer.print_tree(std::cout);
      if (!args.trace_out.empty()) {
        const std::string path = args.trace_out + "/" + workload + "-seed" +
                                 std::to_string(args.seed) + ".json";
        std::ofstream os(path);
        tracer.write_json(os, manifest);
        if (!os) {
          std::cerr << "hbbench: cannot write " << path << "\n";
          return 1;
        }
        std::cout << "spans: " << path << "\n";
      }
    }
    print_result(out);
  }
  return 0;
}
