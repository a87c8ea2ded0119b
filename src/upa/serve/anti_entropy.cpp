#include "upa/serve/anti_entropy.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/json.hpp"

namespace upa::serve {

namespace {

std::atomic<AntiEntropyAgent*> g_agent{nullptr};

/// Splits "host:port"; throws ModelError on a malformed address.
void parse_peer(const std::string& peer, std::string* host,
                std::uint16_t* port) {
  const auto colon = peer.rfind(':');
  UPA_REQUIRE(colon != std::string::npos && colon > 0 &&
                  colon + 1 < peer.size(),
              "peer must be host:port, got '" + peer + "'");
  *host = peer.substr(0, colon);
  const long value = std::strtol(peer.c_str() + colon + 1, nullptr, 10);
  UPA_REQUIRE(value > 0 && value <= 65535,
              "peer port out of range in '" + peer + "'");
  *port = static_cast<std::uint16_t>(value);
}

}  // namespace

AntiEntropyAgent::AntiEntropyAgent(AntiEntropyConfig config)
    : config_(std::move(config)) {}

AntiEntropyAgent::~AntiEntropyAgent() { stop(); }

void AntiEntropyAgent::start() {
  if (loop_.joinable() || config_.peers.empty()) return;
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    stop_ = false;
  }
  loop_ = std::thread([this] {
    std::size_t next_peer = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(loop_mutex_);
        loop_cv_.wait_for(lock, config_.interval, [this] { return stop_; });
        if (stop_) return;
      }
      (void)run_round(next_peer++);
    }
  });
}

void AntiEntropyAgent::stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    stop_ = true;
  }
  loop_cv_.notify_all();
  if (loop_.joinable()) loop_.join();
}

bool AntiEntropyAgent::run_round(std::size_t peer_index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rounds;
  }
  try {
    const std::string& peer = config_.peers[peer_index % config_.peers.size()];
    std::string host;
    std::uint16_t port = 0;
    parse_peer(peer, &host, &port);

    Client client;
    client.connect(host, port, config_.connect_timeout_seconds);

    // Step 0: O(1) convergence check. A fingerprint mismatch (or a peer
    // that predates the op and errors on it) falls through to the pull.
    {
      const cache::DigestFingerprint mine =
          cache::digest_fingerprint(cache::global());
      Json params = Json::object();
      params.set("op", Json(std::string("fingerprint")));
      const CallResult reply = client.call("cache", std::move(params));
      const Json* result = reply.ok() ? reply.result() : nullptr;
      const Json* count =
          result != nullptr ? result->find("digest_count") : nullptr;
      const Json* fold =
          result != nullptr ? result->find("fingerprint_hex") : nullptr;
      if (count != nullptr && count->is_number() && fold != nullptr &&
          fold->is_string()) {
        cache::DigestFingerprint theirs;
        theirs.count = static_cast<std::uint64_t>(count->as_number());
        const std::vector<std::uint64_t> decoded =
            cache::decode_digests(cache::from_hex(fold->as_string()));
        UPA_REQUIRE(decoded.size() == 1,
                    "peer fingerprint_hex must be 16 hex chars");
        theirs.fold = decoded.front();
        if (theirs == mine) {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.pulls_ok;
          ++stats_.rounds_converged;
          return true;
        }
      }
    }

    const std::string have_hex = cache::to_hex(
        cache::encode_digests(cache::digest_summary(cache::global())));

    // Steps 2-4: pull the delta page by page over the kept-alive
    // connection; the peer bounds each page.
    std::uint64_t pulled = 0;
    std::uint64_t pages = 0;
    std::string cursor_hex;
    for (;;) {
      Json params = Json::object();
      params.set("op", Json(std::string("pull")));
      params.set("have_hex", Json(have_hex));
      if (!cursor_hex.empty()) params.set("cursor", Json(cursor_hex));
      const CallResult reply = client.call("cache", std::move(params));
      if (!reply.ok()) {
        throw common::ModelError("cache pull failed: " +
                                 reply.error_message);
      }
      const Json* result = reply.result();
      const Json* segment_hex =
          result != nullptr ? result->find("segment_hex") : nullptr;
      const Json* complete =
          result != nullptr ? result->find("complete") : nullptr;
      UPA_REQUIRE(segment_hex != nullptr && segment_hex->is_string() &&
                      complete != nullptr && complete->is_bool(),
                  "cache pull reply lacks segment_hex/complete");

      const std::string blob = cache::from_hex(segment_hex->as_string());
      cache::ImportStats imported;
      if (cache::PersistentCache* tier = cache::global_persistence()) {
        imported = tier->import_blob(blob);
      } else {
        imported = cache::import_segment_blob(cache::global(), blob);
      }
      UPA_REQUIRE(!imported.segment_rejected,
                  "peer delta rejected: version/tag mismatch");
      pulled += imported.records_seeded;
      ++pages;

      if (complete->as_bool()) break;
      const Json* next_cursor = result->find("next_cursor");
      UPA_REQUIRE(next_cursor != nullptr && next_cursor->is_string(),
                  "incomplete pull reply lacks next_cursor");
      UPA_REQUIRE(next_cursor->as_string() != cursor_hex,
                  "pull cursor did not advance");
      cursor_hex = next_cursor->as_string();
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.pulls_ok;
    stats_.records_pulled += pulled;
    stats_.pages_pulled += pages;
    return true;
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.pull_errors;
    return false;
  }
}

AntiEntropyStats AntiEntropyAgent::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

AntiEntropyAgent* global_anti_entropy() noexcept {
  return g_agent.load(std::memory_order_acquire);
}

void set_global_anti_entropy(AntiEntropyAgent* agent) noexcept {
  g_agent.store(agent, std::memory_order_release);
}

}  // namespace upa::serve
