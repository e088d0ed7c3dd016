// hbnet::obs -- background snapshot exporter for live telemetry.
//
// A Snapshotter owns one exporter thread that periodically samples a
// ProgressBoard and serializes the result two ways:
//
//  * an append-only NDJSON stream (`stream_path`): one complete JSON
//    object per line, written with a single flushed append so a tailing
//    reader (or a crash) always sees whole lines;
//  * a Prometheus-style text exposition file (`prom_path`): rewritten
//    each interval via write-to-tmp + std::rename, so any reader always
//    opens a complete, self-consistent scrape.
//
// The exporter is a pure observer: it reads the board with relaxed loads
// and never feeds anything back into the engines, so attaching one
// cannot perturb results. A path it cannot open gets one stderr warning
// and is skipped; the run goes on unchanged. This file is the sanctioned
// home for wall clocks (hblint rule wall-clock-outside-obs): snapshot
// timestamps are real time by design and never reach simulation state.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/progress.hpp"

namespace hbnet::obs {

struct SnapshotterOptions {
  /// NDJSON stream file, appended to; empty disables the stream.
  std::string stream_path;
  /// Prometheus text exposition file, atomically replaced each snapshot;
  /// empty disables the exposition.
  std::string prom_path;
  /// Export interval. Clamped to >= 10ms.
  std::uint64_t interval_ms = 200;
  /// Value of the "job" field on every NDJSON line (e.g. "campaign").
  std::string job = "hbnet";
};

class Snapshotter {
 public:
  /// Observes `board` (not owned; must outlive stop()).
  Snapshotter(const ProgressBoard& board, SnapshotterOptions options);
  ~Snapshotter();  // stops if still running
  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Writes one immediate snapshot, then launches the exporter thread.
  /// No-op if already started.
  void start();

  /// Writes one final snapshot and joins the exporter. Safe to call
  /// repeatedly; after stop() both output files are complete.
  void stop();

  /// Snapshots written so far (for tests; includes start/stop snapshots).
  [[nodiscard]] std::uint64_t snapshots_written() const;

  /// `key` mangled into a Prometheus metric name: "hbnet_" prefix, every
  /// non-[a-zA-Z0-9_] byte replaced with '_'. "campaign.trials_done" ->
  /// "hbnet_campaign_trials_done".
  [[nodiscard]] static std::string prometheus_name(const std::string& key);

 private:
  void run();
  void write_snapshot();
  void write_stream_line(
      const std::vector<std::pair<std::string, std::uint64_t>>& values,
      std::uint64_t unix_ms);
  void write_prom_file(
      const std::vector<std::pair<std::string, std::uint64_t>>& values,
      std::uint64_t unix_ms);

  const ProgressBoard& board_;
  SnapshotterOptions options_;
  std::thread thread_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::uint64_t seq_ = 0;
  // One warning per unwritable path. Only one thread writes at a time:
  // start() before the exporter thread exists, stop() after joining it.
  bool stream_warned_ = false;
  bool prom_warned_ = false;
};

}  // namespace hbnet::obs
