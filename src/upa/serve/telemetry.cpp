#include "upa/serve/telemetry.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/connection_server.hpp"
#include "upa/serve/json.hpp"

namespace upa::serve {

namespace {

void set_send_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Json span_attrs_json(const obs::Span& span) {
  Json attrs = Json::object();
  for (const obs::SpanAttribute& a : span.attributes) {
    attrs.set(a.key, a.is_number ? Json(a.number) : Json(a.text));
  }
  return attrs;
}

}  // namespace

Json histogram_json(const obs::Histogram& histogram) {
  Json h = Json::object();
  h.set("count", Json(static_cast<double>(histogram.count())));
  h.set("sum", Json(histogram.sum()));
  Json bounds = Json::array();
  for (const double b : histogram.upper_bounds()) bounds.push_back(Json(b));
  h.set("bounds", std::move(bounds));
  Json counts = Json::array();
  for (const std::uint64_t c : histogram.bucket_counts()) {
    counts.push_back(Json(static_cast<double>(c)));
  }
  h.set("counts", std::move(counts));
  return h;
}

TelemetryStreamer::TelemetryStreamer(TelemetryStreamerOptions options)
    : options_(std::move(options)) {
  UPA_REQUIRE(options_.max_subscribers >= 1,
              "telemetry needs room for at least one subscriber");
}

TelemetryStreamer::~TelemetryStreamer() { stop(); }

bool TelemetryStreamer::add_subscriber(int fd, double interval_seconds,
                                       const std::string& ack_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return false;
  reap_finished_locked();
  if (subscribers_.size() >= options_.max_subscribers) return false;

  set_send_timeout(fd, options_.io_timeout_seconds);
  auto subscriber = std::make_unique<Subscriber>();
  subscriber->fd = fd;
  subscriber->interval_seconds = interval_seconds;
  Subscriber* raw = subscriber.get();
  subscriber->thread = std::thread(
      [this, raw, ack = ack_line] { run_subscriber(raw, ack); });
  subscribers_.push_back(std::move(subscriber));
  return true;
}

void TelemetryStreamer::run_subscriber(Subscriber* subscriber,
                                       std::string ack_line) {
  std::size_t span_cursor = 0;
  std::uint64_t seq = 0;
  bool ok = send_all(subscriber->fd, ack_line + "\n");
  std::unique_lock<std::mutex> lock(mutex_);
  while (ok && !stopping_) {
    lock.unlock();
    const std::string payload = build_tick(seq++, span_cursor);
    ok = send_all(subscriber->fd, payload);
    lock.lock();
    if (!ok || stopping_) break;
    cv_.wait_for(
        lock,
        std::chrono::duration<double>(subscriber->interval_seconds),
        [this] { return stopping_; });
  }
  subscriber->done = true;
}

std::string TelemetryStreamer::build_tick(std::uint64_t seq,
                                          std::size_t& span_cursor) const {
  obs::MetricsRegistry registry;
  if (options_.fill_metrics) options_.fill_metrics(registry);
  const std::uint64_t dropped =
      options_.dropped_spans ? options_.dropped_spans() : 0;
  std::vector<obs::Span> spans;
  if (options_.copy_spans) spans = options_.copy_spans(span_cursor);

  Json metrics = Json::object();
  metrics.set("telemetry", Json("metrics"));
  metrics.set("process", Json(options_.process));
  metrics.set("seq", Json(static_cast<double>(seq)));
  metrics.set("dropped_spans", Json(static_cast<double>(dropped)));
  Json counters = Json::object();
  for (const auto& [name, counter] : registry.counters()) {
    counters.set(name, Json(static_cast<double>(counter.value())));
  }
  metrics.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, gauge] : registry.gauges()) {
    gauges.set(name, Json(gauge.value()));
  }
  metrics.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& [name, histogram] : registry.histograms()) {
    histograms.set(name, histogram_json(histogram));
  }
  metrics.set("histograms", std::move(histograms));

  std::string payload = metrics.dump() + "\n";
  for (const obs::Span& span : spans) {
    Json line = Json::object();
    line.set("telemetry", Json("span"));
    line.set("process", Json(options_.process));
    line.set("id", Json(static_cast<double>(span.id)));
    line.set("parent", Json(static_cast<double>(span.parent)));
    line.set("name", Json(span.name));
    line.set("level", Json(obs::span_level_name(span.level)));
    line.set("domain", Json(obs::time_domain_name(span.domain)));
    line.set("start", Json(span.start));
    line.set("end", Json(span.end));
    line.set("attrs", span_attrs_json(span));
    payload += line.dump() + "\n";
  }
  return payload;
}

void TelemetryStreamer::stop() {
  std::vector<std::unique_ptr<Subscriber>> subscribers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
    // Unblock any thread stuck in send(); harmless on finished fds
    // (they stay open until joined below -- threads never close fds).
    for (const auto& subscriber : subscribers_) {
      ::shutdown(subscriber->fd, SHUT_RDWR);
    }
    subscribers.swap(subscribers_);
  }
  for (const auto& subscriber : subscribers) {
    if (subscriber->thread.joinable()) subscriber->thread.join();
    ::close(subscriber->fd);
  }
}

std::size_t TelemetryStreamer::active_subscribers() {
  std::lock_guard<std::mutex> lock(mutex_);
  reap_finished_locked();
  return subscribers_.size();
}

void TelemetryStreamer::reap_finished_locked() {
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    if ((*it)->done) {
      (*it)->thread.join();
      ::close((*it)->fd);
      it = subscribers_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace upa::serve
