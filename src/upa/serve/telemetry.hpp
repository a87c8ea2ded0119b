#pragma once
// Push-based telemetry streaming: a `subscribe` RPC turns an accepted
// connection into a one-way JSONL channel. The streamer owns the
// subscriber sockets and runs one sender thread per subscriber; every
// tick it emits one metrics snapshot line
//
//   {"telemetry":"metrics","process":"upa_served:7077","seq":3,
//    "dropped_spans":0,"counters":{"serve.accepted":4,...},
//    "gauges":{"serve.in_system":1,...},
//    "histograms":{"serve.request_latency_seconds":
//                  {"count":12,"sum":0.9,"bounds":[...],"counts":[...]}}}
//
// Cumulative totals are counters and levels are gauges; the table under
// "Telemetry stream schema" in docs/modeling-guide.md names every metric
// both daemons stream.
//
// followed by one line per span completed since the previous tick:
//
//   {"telemetry":"span","process":"upa_served:7077","id":5,"parent":4,
//    "name":"handler","level":"serve_phase","domain":"wall_seconds",
//    "start":1.25,"end":1.31,"attrs":{...}}
//
// Span streaming is cursor-based over the owner's append-only span
// table; the owner guarantees (via its copy_spans callback) that spans
// are only visible once complete, so a subscriber never sees a
// half-open span. A slow or dead subscriber is detached on the first
// failed send -- it cannot block the serving path, which never touches
// the streamer after the subscribe handoff.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "upa/obs/metrics.hpp"
#include "upa/obs/trace.hpp"
#include "upa/serve/json.hpp"

namespace upa::serve {

/// {"count":N,"sum":S,"bounds":[...],"counts":[...]} for one
/// le-bucket histogram (counts has the trailing overflow bucket).
/// Shared by the telemetry stream, `stats`, and `dispatch_stats`.
[[nodiscard]] Json histogram_json(const obs::Histogram& histogram);

struct TelemetryStreamerOptions {
  /// Label stamped on every emitted line (e.g. "upa_served:7077").
  std::string process;
  std::size_t max_subscribers = 64;
  /// Send timeout per tick; a subscriber that cannot drain one tick in
  /// this long is dropped.
  double io_timeout_seconds = 10.0;
  /// Fills a fresh registry with the owner's current metric snapshot.
  std::function<void(obs::MetricsRegistry&)> fill_metrics;
  /// Copies completed spans at table positions >= cursor and advances
  /// the cursor past them. Must be internally synchronized.
  std::function<std::vector<obs::Span>(std::size_t& cursor)> copy_spans;
  /// Current dropped-span count of the owner's tracer.
  std::function<std::uint64_t()> dropped_spans;
};

class TelemetryStreamer {
 public:
  explicit TelemetryStreamer(TelemetryStreamerOptions options);
  ~TelemetryStreamer();

  TelemetryStreamer(const TelemetryStreamer&) = delete;
  TelemetryStreamer& operator=(const TelemetryStreamer&) = delete;

  /// Takes ownership of `fd` and starts streaming to it: first the ack
  /// line (the subscribe RPC response), then one tick immediately, then
  /// one tick per interval. Returns false (without touching `fd`) when
  /// the subscriber limit is reached or the streamer is stopping.
  bool add_subscriber(int fd, double interval_seconds,
                      const std::string& ack_line);

  /// Stops every subscriber thread and closes every owned fd. Idempotent.
  void stop();

  [[nodiscard]] std::size_t active_subscribers();

 private:
  struct Subscriber {
    int fd = -1;
    double interval_seconds = 0.5;
    bool done = false;  // guarded by mutex_
    std::thread thread;
  };

  void run_subscriber(Subscriber* subscriber, std::string ack_line);
  [[nodiscard]] std::string build_tick(std::uint64_t seq,
                                       std::size_t& span_cursor) const;
  void reap_finished_locked();

  TelemetryStreamerOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
};

}  // namespace upa::serve
