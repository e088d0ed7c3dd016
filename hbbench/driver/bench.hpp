// Shared machinery of the hbbench driver: host-time spans, the closed-loop
// measurement helper, metric records and the contract-violation error.
//
// Every number here is measured from outside the library: the driver times
// its own calls into hbnet's public functions with std::chrono::steady_clock
// and reads the counts those functions already return.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace hbbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A broken output contract. The run prints the reason on stderr, exits
/// non-zero and reports no numbers.
class ContractError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws ContractError(what) unless `ok`.
void require(bool ok, const std::string& what);

/// One host-time span: a call into a layer, as seen from the driver.
struct Span {
  std::string name;
  int parent = -1;  // index of the parent span, -1 for a root
  double start_s = 0.0;  // since the tracer's origin
  double end_s = 0.0;
};

/// In-memory span recorder for the traced run. Single-threaded: the driver
/// opens and closes every span on its main thread, around calls that may
/// fan out to pool workers internally. A disabled tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, std::string run_id);

  /// Opens a child of the innermost open span; returns its index (-1 when
  /// disabled).
  int open(const std::string& name);
  void close(int id);

  /// Span duration minus the part of it its children cover.
  [[nodiscard]] std::vector<double> self_times() const;

  /// Empty when every span is closed, every self time is non-negative and
  /// the children of each span fit inside it; otherwise the first problem.
  [[nodiscard]] std::string validate() const;

  /// Aggregated tree (one line per distinct name path: count, total, self).
  void print_tree(std::ostream& os) const;

  /// Every span with its parent and self time, as one JSON object.
  void write_json(std::ostream& os, const std::string& manifest_json) const;

 private:
  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Runs `fn` once; returns its host time in seconds, recording a span named
/// `name` when `traced`.
double timed(Tracer& tracer, bool traced, const std::string& name,
             const std::function<void()>& fn);

/// Closed-loop repetition: calls fn(i) (each call starts after the previous
/// one returns) until at least `min_calls` calls have run and `seconds` of
/// host time have passed. fn returns the host time of its measured part.
std::vector<double> repeat_for(double seconds, unsigned min_calls,
                               const std::function<double(unsigned)>& fn);

/// Set-up cost of one part, under a span named `name`: `samples` timed
/// batches of `batch` consecutive calls of `fn`; returns the median time of
/// one call. Batching keeps clock overhead out of sub-microsecond parts.
/// Workloads set up afresh before every engine call, so that, like the call
/// times, the set-up samples spread over the whole run.
double setup_part(Tracer& tracer, const std::string& name, unsigned samples,
                  unsigned batch, const std::function<void()>& fn);

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// The quantile over a run's calls that the end-to-end host times report.
/// A shared host only ever slows a call down, in spells of seconds, so the
/// lower quartile tracks the code's own cost more steadily across runs than
/// the median does, while still averaging over a quarter of the calls.
inline constexpr double kHostTimeQuantile = 0.25;

/// Quantile of an integer-valued histogram, interpolated linearly inside
/// the bucket that holds it (value v covers [v, v+1)), so a shift of the
/// distribution shows before it moves the nearest-rank percentile.
[[nodiscard]] double histogram_quantile(const hbnet::obs::Histogram& h,
                                        double q);

/// Every count and latency bucket of `s` as text: equal strings mean
/// byte-equal statistics.
[[nodiscard]] std::string stats_fingerprint(const hbnet::SimStats& s);

/// Peak resident set since the last reset_peak_rss(), in MB.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

/// What one workload run reports.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  // Operations of one engine call: every measured call replays the same
  // inputs and must reproduce that call exactly, so the counts depend on the
  // seed alone, not on how many calls the run's time held.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // of which failed (allowed losses)
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Inputs of one workload run.
struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  // nproc
  Tracer* tracer = nullptr;
  /// Workload-specific manifest entries (sizes, shard counts, derived
  /// seeds), already JSON-encoded values.
  std::map<std::string, std::string> manifest;
};

Outcome run_sf_uniform(Context& ctx);
Outcome run_campaign_faults(Context& ctx);
Outcome run_kappa_exact(Context& ctx);

/// sim (wormhole) probe: run_wormhole on HB(3,5) with m+3 node faults.
void probe_wormhole(Tracer& tr, Context& ctx, Outcome& out);

/// par probe: time of an empty parallel_for over a `threads`-worker pool.
void probe_par_dispatch(Tracer& tr, unsigned threads, Outcome& out);

/// The end-to-end metrics every workload reports, from its measured calls
/// and the set-up before each. `work_per_call` is the workload's unit of
/// work per call (packet hops or solves).
void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& call_s,
                    const std::vector<double>& work_per_call);

}  // namespace hbbench
