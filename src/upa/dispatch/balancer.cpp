#include "upa/dispatch/balancer.hpp"

#include <algorithm>

#include "upa/common/error.hpp"

namespace upa::dispatch {

BalancePolicy parse_balance_policy(const std::string& text) {
  if (text == "round-robin") return BalancePolicy::kRoundRobin;
  if (text == "least-outstanding") return BalancePolicy::kLeastOutstanding;
  if (text == "consistent-hash") return BalancePolicy::kConsistentHash;
  throw common::ModelError(
      "balance policy must be round-robin | least-outstanding | "
      "consistent-hash, got '" +
      text + "'");
}

std::string balance_policy_name(BalancePolicy policy) {
  switch (policy) {
    case BalancePolicy::kRoundRobin: return "round-robin";
    case BalancePolicy::kLeastOutstanding: return "least-outstanding";
    case BalancePolicy::kConsistentHash: return "consistent-hash";
  }
  return "?";
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  // splitmix64-style finalizer: raw FNV-1a barely moves the high bits
  // when strings differ only in trailing bytes (the last byte shifts the
  // value by at most ~255 * prime), which would cluster similar affinity
  // keys onto one ring position.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

std::string affinity_key(const std::string& request_line) {
  try {
    return affinity_key(serve::parse_json(request_line), request_line);
  } catch (const std::exception&) {
    return request_line;  // malformed lines still balance deterministically
  }
}

std::string affinity_key(const serve::Json& request,
                         const std::string& request_line) {
  const serve::Json* method = request.find("method");
  if (method == nullptr || !method->is_string()) return request_line;
  std::string key = method->as_string();
  if (const serve::Json* params = request.find("params"); params != nullptr) {
    key += "|" + params->dump();
  }
  return key;
}

Balancer::Balancer(const UpstreamPool& pool, BalancePolicy policy,
                   std::size_t virtual_nodes)
    : pool_(pool), policy_(policy) {
  UPA_REQUIRE(virtual_nodes > 0, "virtual_nodes must be > 0");
  ring_.reserve(pool_.size() * virtual_nodes);
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const std::string label = pool_.address(i).label();
    for (std::size_t v = 0; v < virtual_nodes; ++v) {
      ring_.push_back(
          {fnv1a64(label + "#" + std::to_string(v)), i});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.index < b.index;
            });
}

std::vector<std::size_t> Balancer::ring_walk(const std::string& key) const {
  // Walk clockwise from the key's position; the first occurrence of each
  // upstream index gives the preference order.
  const std::uint64_t h = fnv1a64(key);
  std::size_t start = ring_.size();
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].hash >= h) {
      start = i;
      break;
    }
  }
  if (start == ring_.size()) start = 0;  // wrap

  std::vector<std::size_t> order;
  std::vector<bool> seen(pool_.size(), false);
  order.reserve(pool_.size());
  for (std::size_t step = 0;
       step < ring_.size() && order.size() < pool_.size(); ++step) {
    const std::size_t index = ring_[(start + step) % ring_.size()].index;
    if (!seen[index]) {
      seen[index] = true;
      order.push_back(index);
    }
  }
  return order;
}

std::vector<std::size_t> Balancer::pick(const std::string& key) {
  std::vector<bool> healthy;
  std::vector<std::size_t> outstanding;
  pool_.balancing_view(healthy, outstanding);
  const std::size_t n = healthy.size();

  std::vector<std::size_t> order;
  switch (policy_) {
    case BalancePolicy::kRoundRobin: {
      const std::uint64_t cursor =
          cursor_.fetch_add(1, std::memory_order_relaxed);
      order.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        order.push_back((cursor + i) % n);
      }
      break;
    }
    case BalancePolicy::kLeastOutstanding: {
      const std::uint64_t cursor =
          cursor_.fetch_add(1, std::memory_order_relaxed);
      order.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        order.push_back((cursor + i) % n);
      }
      // Stable sort keeps the rotated tie-break under equal load.
      std::stable_sort(order.begin(), order.end(),
                       [&outstanding](std::size_t a, std::size_t b) {
                         return outstanding[a] < outstanding[b];
                       });
      break;
    }
    case BalancePolicy::kConsistentHash: {
      order = ring_walk(key);
      break;
    }
  }

  // Healthy upstreams first, preserving per-policy order within each
  // class; the unhealthy tail keeps the front fail-open.
  std::stable_partition(order.begin(), order.end(),
                        [&healthy](std::size_t i) { return healthy[i]; });
  return order;
}

}  // namespace upa::dispatch
