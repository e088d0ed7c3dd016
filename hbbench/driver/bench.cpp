#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <sys/resource.h>

#include "par/pool.hpp"

namespace hbbench {

void require(bool ok, const std::string& what) {
  if (!ok) throw ContractError(what);
}

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = seconds_between(origin_, Clock::now());
  s.end_s = -1.0;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(origin_, Clock::now());
  stack_.pop_back();
}

std::vector<double> Tracer::self_times() const {
  // Children of one span are opened and closed one after another on the
  // same thread, so they never overlap: the covered part is their sum.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  return self;
}

std::string Tracer::validate() const {
  if (!stack_.empty()) return "span '" + spans_[stack_.back()].name + "' open";
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_s < s.start_s) return "span '" + s.name + "' never closed";
    if (self[i] < 0.0) return "span '" + s.name + "' has negative self time";
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.start_s < p.start_s || s.end_s > p.end_s) {
        return "span '" + s.name + "' escapes its parent '" + p.name + "'";
      }
    }
  }
  return {};
}

void Tracer::print_tree(std::ostream& os) const {
  // Aggregate by name path, keeping first-seen order.
  struct Agg {
    int depth = 0;
    unsigned count = 0;
    double total = 0.0, self = 0.0;
  };
  const std::vector<double> self = self_times();
  std::vector<std::string> path(spans_.size());
  std::vector<int> depth(spans_.size(), 0);
  std::vector<std::string> order;
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    path[i] = p < 0 ? spans_[i].name
                    : path[static_cast<std::size_t>(p)] + "/" + spans_[i].name;
    depth[i] = p < 0 ? 0 : depth[static_cast<std::size_t>(p)] + 1;
    auto [it, fresh] = agg.try_emplace(path[i]);
    if (fresh) order.push_back(path[i]);
    it->second.depth = depth[i];
    ++it->second.count;
    it->second.total += spans_[i].end_s - spans_[i].start_s;
    it->second.self += self[i];
  }
  os << "span tree (run " << run_id_ << "): count  total_s  self_s  name\n";
  for (const std::string& key : order) {
    const Agg& a = agg[key];
    const std::size_t slash = key.rfind('/');
    os << std::setw(6) << a.count << ' ' << std::fixed << std::setprecision(6)
       << std::setw(11) << a.total << ' ' << std::setw(11) << a.self << "  "
       << std::string(static_cast<std::size_t>(2 * a.depth), ' ')
       << (slash == std::string::npos ? key : key.substr(slash + 1)) << '\n';
    os.unsetf(std::ios::fixed);
  }
}

void Tracer::write_json(std::ostream& os,
                        const std::string& manifest_json) const {
  const std::vector<double> self = self_times();
  os << "{\"run_id\":\"" << run_id_ << "\",\"manifest\":" << manifest_json
     << ",\"spans\":[";
  os << std::setprecision(17);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? "," : "") << "\n{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
       << ",\"end_s\":" << s.end_s << ",\"self_s\":" << self[i] << '}';
  }
  os << "\n]}\n";
}

double timed(Tracer& tracer, bool traced, const std::string& name,
             const std::function<void()>& fn) {
  const int id = traced ? tracer.open(name) : -1;
  const Clock::time_point t0 = Clock::now();
  fn();
  const double dt = seconds_between(t0, Clock::now());
  tracer.close(id);
  return dt;
}

std::vector<double> repeat_for(double seconds, unsigned min_calls,
                               const std::function<double(unsigned)>& fn) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  for (unsigned i = 0;; ++i) {
    if (i >= min_calls && seconds_between(start, Clock::now()) >= seconds) {
      break;
    }
    times.push_back(fn(i));
  }
  return times;
}

double setup_part(Tracer& tracer, const std::string& name, unsigned samples,
                  unsigned batch, const std::function<void()>& fn) {
  const Scope span(tracer, name);
  std::vector<double> t;
  for (unsigned i = 0; i < samples; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (unsigned b = 0; b < batch; ++b) fn();
    t.push_back(seconds_between(t0, Clock::now()) / batch);
  }
  return median(std::move(t));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double histogram_quantile(const hbnet::obs::Histogram& h, double q) {
  const double target = q * static_cast<double>(h.count());
  double cum = 0.0;
  double result = static_cast<double>(h.max());
  bool found = false;
  h.for_each_bucket([&](std::uint64_t lo, std::uint64_t hi, std::uint64_t c) {
    if (found) return;
    const double n = static_cast<double>(c);
    if (cum + n >= target) {
      result = static_cast<double>(lo) +
               (target - cum) / n * static_cast<double>(hi + 1 - lo);
      found = true;
    }
    cum += n;
  });
  return result;
}

std::string stats_fingerprint(const hbnet::SimStats& s) {
  std::ostringstream os;
  os << std::setprecision(17) << s.injected() << ' ' << s.delivered() << ' '
     << s.dropped() << ' ' << s.mean_hops() << ' ' << s.mean_latency() << ' '
     << s.max_latency() << ':';
  s.latency_histogram().for_each_bucket(
      [&](std::uint64_t lo, std::uint64_t, std::uint64_t c) {
        os << ' ' << lo << '=' << c;
      });
  return os.str();
}

void reset_peak_rss() {
  // Linux: writing 5 resets the VmHWM high-water mark to the current RSS,
  // so the peak is per workload rather than per process lifetime.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void probe_par_dispatch(Tracer& tr, unsigned threads, Outcome& out) {
  const Scope probe(tr, "probe.par.dispatch");
  hbnet::par::ThreadPool pool(threads);
  constexpr unsigned kCalls = 2000;
  const double dt = timed(tr, true, "par.parallel_for.empty", [&] {
    for (unsigned i = 0; i < kCalls; ++i) {
      pool.parallel_for(pool.size(), [](std::uint64_t) {});
    }
  });
  out.add("par.dispatch_us", dt * 1e6 / kCalls, "us");
}

void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& call_s,
                    const std::vector<double>& work_per_call) {
  std::vector<double> rate;
  for (std::size_t i = 0; i < call_s.size(); ++i) {
    rate.push_back(work_per_call[i] / call_s[i]);
  }
  out.add("setup_s", quantile(setup_s, kHostTimeQuantile), "s");
  out.add("wall_s", quantile(call_s, kHostTimeQuantile), "s");
  out.add("work_per_s", quantile(rate, 1.0 - kHostTimeQuantile), "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("ok_frac",
          out.attempted == 0
              ? 0.0
              : static_cast<double>(out.attempted - out.failed) /
                    static_cast<double>(out.attempted),
          "ratio");
}

}  // namespace hbbench
