// Evaluation-cache subsystem: key canonicalization, single-flight
// concurrency, eviction, statistics/metrics publication, and the
// bit-for-bit replay contract across the cached analytic entry points
// (cache on/off x sweep threads 1/8 must produce identical bytes).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "upa/cache/eval_cache.hpp"
#include "upa/common/error.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/inject/campaign.hpp"
#include "upa/inject/injectors.hpp"
#include "upa/markov/ctmc.hpp"
#include "upa/obs/observer.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/sensitivity/sweep.hpp"

namespace {

namespace cache = upa::cache;
using upa::common::ModelError;

cache::CacheKey key_of(double value) {
  cache::KeyBuilder kb("test.solver", 1);
  kb.add(value);
  return std::move(kb).finish();
}

TEST(KeyBuilder, NegativeZeroHashesEqualToPositiveZero) {
  const cache::CacheKey neg = key_of(-0.0);
  const cache::CacheKey pos = key_of(0.0);
  EXPECT_EQ(neg.bytes, pos.bytes);
  EXPECT_EQ(neg.digest, pos.digest);
}

TEST(KeyBuilder, DistinctValuesProduceDistinctBytes) {
  EXPECT_NE(key_of(1.0).bytes, key_of(2.0).bytes);
  // Denormals, infinities, and ordinary values all key on their exact
  // bit pattern.
  EXPECT_NE(key_of(std::numeric_limits<double>::infinity()).bytes,
            key_of(std::numeric_limits<double>::max()).bytes);
  EXPECT_NE(key_of(5e-324).bytes, key_of(0.0).bytes);
}

TEST(KeyBuilder, RejectsNanWithStructuredError) {
  cache::KeyBuilder kb("test.solver", 1);
  EXPECT_THROW(kb.add(std::numeric_limits<double>::quiet_NaN()), ModelError);
  cache::KeyBuilder kv("test.solver", 1);
  EXPECT_THROW(kv.add(std::vector<double>{1.0, std::nan("")}), ModelError);
}

TEST(KeyBuilder, VersionTagAndSolverIdAreInTheKey) {
  cache::KeyBuilder v1("test.solver", 1);
  v1.add(1.0);
  cache::KeyBuilder v2("test.solver", 2);
  v2.add(1.0);
  cache::KeyBuilder other("test.other", 1);
  other.add(1.0);
  const auto k1 = std::move(v1).finish();
  const auto k2 = std::move(v2).finish();
  const auto k3 = std::move(other).finish();
  EXPECT_NE(k1.bytes, k2.bytes);
  EXPECT_NE(k1.bytes, k3.bytes);
  EXPECT_EQ(k1.solver_id, "test.solver");
}

TEST(KeyBuilder, LengthPrefixingPreventsConcatenationCollisions) {
  cache::KeyBuilder a("test.solver", 1);
  a.add(std::string("ab")).add(std::string("c"));
  cache::KeyBuilder b("test.solver", 1);
  b.add(std::string("a")).add(std::string("bc"));
  EXPECT_NE(std::move(a).finish().bytes, std::move(b).finish().bytes);

  cache::KeyBuilder c("test.solver", 1);
  c.add(std::vector<double>{1.0, 2.0});
  cache::KeyBuilder d("test.solver", 1);
  d.add(std::vector<double>{1.0}).add(std::vector<double>{2.0});
  EXPECT_NE(std::move(c).finish().bytes, std::move(d).finish().bytes);
}

TEST(EvalCache, StoresRepaysAndCountsStats) {
  cache::EvalCache ec;
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 42.0;
  };
  EXPECT_EQ(*ec.get_or_compute<double>(key_of(1.0), compute), 42.0);
  EXPECT_EQ(*ec.get_or_compute<double>(key_of(1.0), compute), 42.0);
  EXPECT_EQ(computes, 1);
  const cache::CacheStats s = ec.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
  EXPECT_EQ(ec.solver_stats("test.solver").hits, 1u);
  EXPECT_EQ(ec.solver_stats("never.seen").lookups(), 0u);
  EXPECT_EQ(ec.size(), 1u);
}

TEST(EvalCache, EightThreadHammeringComputesEachKeyOnce) {
  cache::EvalCache ec;
  constexpr int kThreads = 8;
  constexpr int kKeys = 5;
  constexpr int kRounds = 50;
  std::atomic<int> computes{0};
  std::vector<std::thread> workers;
  std::atomic<bool> wrong_value{false};
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const double expected = 100.0 + k;
          const auto value =
              ec.get_or_compute<double>(key_of(double(k)), [&] {
                computes.fetch_add(1);
                return expected;
              });
          if (*value != expected) wrong_value = true;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(computes.load(), kKeys);  // exactly one solve per distinct key
  EXPECT_FALSE(wrong_value.load());
  const cache::CacheStats s = ec.stats();
  EXPECT_EQ(s.lookups(),
            std::uint64_t(kThreads) * std::uint64_t(kKeys) * kRounds);
  EXPECT_EQ(s.misses, std::uint64_t(kKeys));
}

TEST(EvalCache, ExceptionPropagatesToCallerAndEntryRetries) {
  cache::EvalCache ec;
  int calls = 0;
  const auto failing = [&]() -> double {
    ++calls;
    throw ModelError("solver exploded");
  };
  EXPECT_THROW((void)ec.get_or_compute<double>(key_of(7.0), failing),
               ModelError);
  // The failed entry is removed: the next call recomputes instead of
  // replaying a poisoned future.
  EXPECT_EQ(*ec.get_or_compute<double>(key_of(7.0), [&] { return 9.0; }),
            9.0);
  EXPECT_EQ(calls, 1);
}

TEST(EvalCache, FifoEvictionRespectsCapacity) {
  cache::EvalCache::Config config;
  config.shards = 1;
  config.max_entries_per_shard = 2;
  cache::EvalCache ec(config);
  int computes = 0;
  const auto value_for = [&](double x) {
    return *ec.get_or_compute<double>(key_of(x), [&] {
      ++computes;
      return 10.0 * x;
    });
  };
  EXPECT_EQ(value_for(1.0), 10.0);
  EXPECT_EQ(value_for(2.0), 20.0);
  EXPECT_EQ(value_for(3.0), 30.0);  // evicts the oldest entry (1.0)
  EXPECT_LE(ec.size(), 2u);
  EXPECT_GE(ec.stats().evictions, 1u);
  EXPECT_EQ(value_for(1.0), 10.0);  // recomputed, not replayed
  EXPECT_EQ(computes, 4);
}

TEST(EvalCache, DigestCollisionNeverAliases) {
  // Two keys with different bytes forced onto the same digest: the
  // digest picks the shard and bucket, but identity is the full bytes.
  const cache::CacheKey a = key_of(1.0);
  cache::CacheKey b = key_of(2.0);
  ASSERT_NE(a.bytes, b.bytes);
  b.digest = a.digest;

  cache::EvalCache::Config config;
  config.shards = 1;
  config.max_entries_per_shard = 2;
  cache::EvalCache ec(config);
  int computes = 0;
  const auto value_of = [&](const cache::CacheKey& key, double value) {
    return *ec.get_or_compute<double>(key, [&] {
      ++computes;
      return value;
    });
  };
  EXPECT_EQ(value_of(a, 10.0), 10.0);
  EXPECT_EQ(value_of(b, 20.0), 20.0);
  EXPECT_EQ(computes, 2);  // the collision did not replay a's value for b
  EXPECT_EQ(value_of(a, -1.0), 10.0);
  EXPECT_EQ(value_of(b, -1.0), 20.0);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ec.size(), 2u);

  // A third key evicts the oldest (a); its digest twin b stays servable.
  EXPECT_EQ(value_of(key_of(3.0), 30.0), 30.0);
  EXPECT_EQ(ec.stats().evictions, 1u);
  const auto must_hit = []() -> double {
    throw ModelError("b was evicted along with its digest twin");
  };
  EXPECT_EQ(*ec.get_or_compute<double>(b, must_hit), 20.0);
  EXPECT_EQ(value_of(a, 11.0), 11.0);  // a recomputes: it really was gone
  EXPECT_EQ(computes, 4);
}

TEST(EvalCache, PublishesMetricsAndRecordsLookupSpans) {
  cache::EvalCache ec;
  upa::obs::Observer ob;
  (void)ec.get_or_compute<double>(key_of(1.0), [] { return 1.0; }, &ob);
  (void)ec.get_or_compute<double>(key_of(1.0), [] { return 1.0; }, &ob);

  // Live counters plus one wall-domain cache_lookup span per lookup with
  // the hit attribute.
  EXPECT_EQ(ob.metrics.counters().at("cache.hits").value(), 1u);
  EXPECT_EQ(ob.metrics.counters().at("cache.misses").value(), 1u);
  ASSERT_EQ(ob.tracer.spans().size(), 2u);
  const upa::obs::Span& miss = ob.tracer.spans()[0];
  const upa::obs::Span& hit = ob.tracer.spans()[1];
  EXPECT_EQ(miss.level, upa::obs::SpanLevel::kCacheLookup);
  EXPECT_EQ(miss.domain, upa::obs::TimeDomain::kWallSeconds);
  EXPECT_EQ(miss.name, "test.solver");
  ASSERT_FALSE(miss.attributes.empty());
  EXPECT_EQ(miss.attributes.back().key, "hit");
  EXPECT_EQ(miss.attributes.back().number, 0.0);
  EXPECT_EQ(hit.attributes.back().number, 1.0);

  upa::obs::MetricsRegistry snapshot;
  ec.publish_metrics(snapshot);
  EXPECT_EQ(snapshot.counters().at("cache.hits").value(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges().at("cache.hit_rate").value(), 0.5);
  EXPECT_DOUBLE_EQ(
      snapshot.gauges().at("cache.test.solver.hit_rate").value(), 0.5);
}

TEST(EvalCache, ClearDropsEntriesAndStats) {
  cache::EvalCache ec;
  (void)ec.get_or_compute<double>(key_of(1.0), [] { return 1.0; });
  ec.clear();
  EXPECT_EQ(ec.size(), 0u);
  EXPECT_EQ(ec.stats().lookups(), 0u);
  EXPECT_TRUE(ec.per_solver_stats().empty());
}

TEST(EvalCache, ResetStatsKeepsEntriesButZeroesCounters) {
  // reset_stats is a measurement-window reset: after it, stored values
  // still replay (no recompute), but hit/miss counters restart at zero.
  cache::EvalCache ec;
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 7.0;
  };
  (void)ec.get_or_compute<double>(key_of(1.0), compute);
  (void)ec.get_or_compute<double>(key_of(1.0), compute);
  ASSERT_EQ(ec.stats().lookups(), 2u);

  ec.reset_stats();
  EXPECT_EQ(ec.size(), 1u);  // entry survives, unlike clear()
  EXPECT_EQ(ec.stats().lookups(), 0u);
  EXPECT_EQ(ec.stats().inserts, 0u);
  EXPECT_TRUE(ec.per_solver_stats().empty());

  // The stored value replays without recomputation and the fresh window
  // counts it as a pure hit.
  EXPECT_EQ(*ec.get_or_compute<double>(key_of(1.0), compute), 7.0);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(ec.stats().hits, 1u);
  EXPECT_EQ(ec.stats().misses, 0u);
  EXPECT_EQ(ec.solver_stats("test.solver").hits, 1u);
}

TEST(EvalCache, ScopedEnableRestoresPreviousState) {
  ASSERT_FALSE(cache::enabled());  // library default: off
  {
    cache::ScopedEnable on;
    EXPECT_TRUE(cache::enabled());
    {
      cache::ScopedEnable off(false);
      EXPECT_FALSE(cache::enabled());
    }
    EXPECT_TRUE(cache::enabled());
  }
  EXPECT_FALSE(cache::enabled());
}

TEST(CtmcCacheKey, RateInsertionOrderDoesNotSplitEntries) {
  upa::markov::Ctmc forward(3);
  forward.add_rate(0, 1, 1.0);
  forward.add_rate(1, 2, 2.0);
  forward.add_rate(2, 0, 3.0);
  upa::markov::Ctmc backward(3);
  backward.add_rate(2, 0, 3.0);
  backward.add_rate(1, 2, 2.0);
  backward.add_rate(0, 1, 1.0);

  cache::KeyBuilder ka("markov.steady_state", 1);
  forward.append_cache_key(ka);
  cache::KeyBuilder kb("markov.steady_state", 1);
  backward.append_cache_key(kb);
  EXPECT_EQ(std::move(ka).finish().bytes, std::move(kb).finish().bytes);
}

TEST(CachedSolvers, SteadyStateReplaysBitForBit) {
  upa::core::WebFarmParams farm{4, 1e-3, 1.0, 0.98, 12.0};
  const auto chain = upa::core::imperfect_coverage_chain(farm);
  const auto uncached = chain.chain.steady_state();

  cache::global().clear();
  cache::ScopedEnable on;
  const auto first = chain.chain.steady_state();
  const auto replay = chain.chain.steady_state();
  EXPECT_EQ(uncached, first);
  EXPECT_EQ(first, replay);
  EXPECT_EQ(cache::global().solver_stats("markov.steady_state").hits, 1u);
  EXPECT_EQ(cache::global().solver_stats("markov.steady_state").misses, 1u);
}

TEST(CachedSolvers, RobustSolveReplaysReportAndRecordsLookupSpan) {
  upa::core::WebFarmParams farm{4, 1e-3, 1.0, 0.98, 12.0};
  const auto chain = upa::core::imperfect_coverage_chain(farm);
  upa::markov::StationaryOptions options;
  const auto uncached = chain.chain.steady_state_robust(options);

  cache::global().clear();
  cache::ScopedEnable on;
  upa::obs::Observer ob;
  options.obs = &ob;
  const auto first = chain.chain.steady_state_robust(options);
  const auto replay = chain.chain.steady_state_robust(options);
  EXPECT_EQ(uncached.distribution, first.distribution);
  EXPECT_EQ(first.distribution, replay.distribution);
  EXPECT_EQ(first.method, replay.method);
  EXPECT_EQ(first.diagnostics, replay.diagnostics);

  std::size_t lookup_spans = 0;
  for (const auto& span : ob.tracer.spans()) {
    if (span.level == upa::obs::SpanLevel::kCacheLookup) ++lookup_spans;
  }
  EXPECT_EQ(lookup_spans, 2u);  // one per steady_state_robust call
}

TEST(CachedSolvers, MmckMetricsReplayBitForBit) {
  const auto uncached = upa::queueing::mmck_metrics(100.0, 100.0, 4, 10);
  cache::global().clear();
  cache::ScopedEnable on;
  const auto first = upa::queueing::mmck_metrics(100.0, 100.0, 4, 10);
  const auto replay = upa::queueing::mmck_metrics(100.0, 100.0, 4, 10);
  EXPECT_EQ(uncached.blocking, first.blocking);
  EXPECT_EQ(uncached.state_probabilities, first.state_probabilities);
  EXPECT_EQ(first.blocking, replay.blocking);
  EXPECT_EQ(first.state_probabilities, replay.state_probabilities);
}

TEST(CachedSolvers, CompositeMemoizesOnlyTheChain) {
  // The p_K(i) loss sub-solve is an O(K) recurrence, cheaper than a
  // cache hit, so it runs uncached; the coverage chain's steady state is
  // the composite's one memoized lookup.
  const upa::core::WebFarmParams farm{4, 1e-3, 1.0, 0.98, 12.0};
  const upa::core::WebQueueParams queue{300.0, 100.0, 12};
  const auto perfect_off =
      upa::core::composite_perfect(farm, queue).breakdown();
  const auto imperfect_off =
      upa::core::composite_imperfect(farm, queue).breakdown();

  cache::global().clear();
  cache::ScopedEnable on;
  const auto perfect = upa::core::composite_perfect(farm, queue).breakdown();
  EXPECT_EQ(cache::global().stats().lookups(), 1u);
  EXPECT_EQ(cache::global().solver_stats("markov.steady_state").misses, 1u);
  const auto imperfect =
      upa::core::composite_imperfect(farm, queue).breakdown();
  EXPECT_EQ(cache::global().stats().lookups(), 2u);
  EXPECT_EQ(cache::global().solver_stats("markov.steady_state").misses, 2u);

  EXPECT_EQ(perfect.availability, perfect_off.availability);
  EXPECT_EQ(perfect.performance_loss, perfect_off.performance_loss);
  EXPECT_EQ(perfect.downtime_loss, perfect_off.downtime_loss);
  EXPECT_EQ(imperfect.availability, imperfect_off.availability);
  EXPECT_EQ(imperfect.performance_loss, imperfect_off.performance_loss);
  EXPECT_EQ(imperfect.downtime_loss, imperfect_off.downtime_loss);

  const auto rows = cache::global().per_solver_stats();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "markov.steady_state");
  EXPECT_EQ(cache::global().solver_stats("queueing.mmck_loss").lookups(), 0u);
}

/// The acceptance matrix: the Figure 11/12-style availability sweep must
/// produce byte-identical series across cache off/on x threads 1/8.
TEST(CachedSolvers, SweepIdenticalAcrossCacheAndThreadMatrix) {
  const auto measure = [](double n, double lambda) {
    upa::core::WebFarmParams farm{std::size_t(n), lambda, 1.0, 0.98, 12.0};
    upa::core::WebQueueParams queue{100.0, 100.0, 10};
    return upa::core::web_service_availability_imperfect(farm, queue) +
           upa::core::composite_imperfect(farm, queue).availability();
  };
  std::vector<double> xs;
  for (std::size_t n = 1; n <= 8; ++n) xs.push_back(double(n));
  const std::vector<double> lambdas{1e-2, 1e-3, 1e-4};
  const std::vector<std::string> labels{"1e-2", "1e-3", "1e-4"};

  std::vector<std::vector<upa::sensitivity::Series>> results;
  for (const bool cache_on : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      cache::global().clear();
      cache::ScopedEnable scoped(cache_on);
      upa::sensitivity::SweepOptions options;
      options.threads = threads;
      results.push_back(upa::sensitivity::sweep_family(xs, lambdas, labels,
                                                       measure, options));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].size(), results[i].size());
    for (std::size_t s = 0; s < results[0].size(); ++s) {
      EXPECT_EQ(results[0][s].label, results[i][s].label);
      EXPECT_EQ(results[0][s].x, results[i][s].x);
      EXPECT_EQ(results[0][s].y, results[i][s].y) << "variant " << i;
    }
  }
}

TEST(CachedSolvers, CampaignReplaysBitForBit) {
  const auto params = upa::ta::TaParameters::paper_defaults();
  upa::inject::CampaignOptions options;
  options.threads = 1;
  options.end_to_end.horizon_hours = 500.0;
  options.end_to_end.sessions_per_replication = 200;
  options.end_to_end.replications = 2;
  options.end_to_end.seed = 7;
  options.end_to_end.threads = 1;
  std::vector<upa::inject::CampaignPlan> plans;
  plans.push_back({"web farm outage",
                   upa::inject::scripted_outage(
                       upa::inject::FaultTarget::kWebFarm, 100.0, 8.0,
                       options.end_to_end.horizon_hours)});

  const auto uncached = upa::inject::run_campaign(upa::ta::UserClass::kB,
                                                  params, options, plans);
  cache::global().clear();
  cache::ScopedEnable on;
  const auto first = upa::inject::run_campaign(upa::ta::UserClass::kB, params,
                                               options, plans);
  const auto replay = upa::inject::run_campaign(upa::ta::UserClass::kB,
                                                params, options, plans);
  ASSERT_EQ(first.entries.size(), uncached.entries.size());
  for (std::size_t i = 0; i < first.entries.size(); ++i) {
    const auto& u = uncached.entries[i];
    const auto& f = first.entries[i];
    const auto& r = replay.entries[i];
    EXPECT_EQ(u.name, f.name);
    EXPECT_EQ(u.perceived_availability.mean, f.perceived_availability.mean);
    EXPECT_EQ(u.delta_vs_baseline, f.delta_vs_baseline);
    EXPECT_EQ(f.name, r.name);
    EXPECT_EQ(f.perceived_availability.mean, r.perceived_availability.mean);
    EXPECT_EQ(f.perceived_availability.half_width,
              r.perceived_availability.half_width);
    EXPECT_EQ(f.delta_vs_baseline, r.delta_vs_baseline);
    EXPECT_EQ(f.observed_web_service_availability,
              r.observed_web_service_availability);
  }
  const auto stats = cache::global().solver_stats("inject.campaign_entry");
  EXPECT_EQ(stats.misses, plans.size() + 1);  // first campaign simulates
  EXPECT_EQ(stats.hits, plans.size() + 1);    // second campaign replays
}

}  // namespace
