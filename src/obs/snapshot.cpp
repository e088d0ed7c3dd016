#include "obs/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace hbnet::obs {

namespace {

std::uint64_t now_unix_ms() {
  // Wall clock by design: snapshot timestamps label exported telemetry
  // and never flow back into any engine.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Exporting is best-effort: a path that cannot be written never fails or
/// changes the run, but it is reported once, on its first failed open, so a
/// mistyped path does not look like a working export.
void warn_unwritable(bool& warned, const char* what, const std::string& path) {
  if (warned) return;
  warned = true;
  std::fprintf(stderr, "warning: cannot write %s '%s'; skipping it\n", what,
               path.c_str());
}

}  // namespace

Snapshotter::Snapshotter(const ProgressBoard& board, SnapshotterOptions options)
    : board_(board), options_(std::move(options)) {
  options_.interval_ms = std::max<std::uint64_t>(options_.interval_ms, 10);
}

Snapshotter::~Snapshotter() { stop(); }

void Snapshotter::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  // An immediate first snapshot so even runs shorter than one interval
  // leave a stream line and an exposition file behind.
  write_snapshot();
  thread_ = std::thread([this] { run(); });
}

void Snapshotter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final snapshot after the engine is done, so the stream's last line
  // and the exposition file both show the finished state.
  write_snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

std::uint64_t Snapshotter::snapshots_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

void Snapshotter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    write_snapshot();
    lock.lock();
  }
}

void Snapshotter::write_snapshot() {
  const auto values = board_.sample();
  const std::uint64_t unix_ms = now_unix_ms();
  write_stream_line(values, unix_ms);
  write_prom_file(values, unix_ms);
  std::lock_guard<std::mutex> lock(mutex_);
  ++seq_;
}

void Snapshotter::write_stream_line(
    const std::vector<std::pair<std::string, std::uint64_t>>& values,
    std::uint64_t unix_ms) {
  if (options_.stream_path.empty()) return;
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = seq_;
  }
  std::ostringstream line;
  line << "{\"seq\":" << seq << ",\"unix_ms\":" << unix_ms << ",\"job\":";
  write_json_string(line, options_.job);
  line << ",\"progress\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) line << ',';
    first = false;
    write_json_string(line, name);
    line << ':' << value;
  }
  line << "}}\n";
  // One append + flush per line: a tailing reader sees whole lines (or
  // nothing), never a torn object.
  std::ofstream os(options_.stream_path, std::ios::app);
  if (!os) {
    warn_unwritable(stream_warned_, "snapshot stream", options_.stream_path);
    return;
  }
  os << line.str();
  os.flush();
}

void Snapshotter::write_prom_file(
    const std::vector<std::pair<std::string, std::uint64_t>>& values,
    std::uint64_t unix_ms) {
  if (options_.prom_path.empty()) return;
  const std::string tmp = options_.prom_path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      warn_unwritable(prom_warned_, "exposition file", options_.prom_path);
      return;
    }
    os << "# hbnet progress exposition (job=" << options_.job << ")\n";
    os << "hbnet_snapshot_unix_ms " << unix_ms << "\n";
    for (const auto& [name, value] : values) {
      os << prometheus_name(name) << ' ' << value << '\n';
    }
    os.flush();
    if (!os) return;
  }
  // Atomic replace: a scraper opening prom_path always reads a complete
  // exposition, never a half-written one.
  std::rename(tmp.c_str(), options_.prom_path.c_str());
}

std::string Snapshotter::prometheus_name(const std::string& key) {
  std::string out = "hbnet_";
  out.reserve(out.size() + key.size());
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace hbnet::obs
