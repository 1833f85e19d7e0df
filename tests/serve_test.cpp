// Serve-mode tests: the identity contract (SquidService answers — cached,
// batched, parallel, before and after evictions — are bit-identical to cold
// serial Squid::Discover), LRU cache mechanics, and concurrent-session
// stress. The suite carries the ctest label `serve` and runs under the
// -DSQUID_TSAN=ON CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

#include "bench/bench_util.h"
#include "core/entity_lookup.h"
#include "core/squid.h"
#include "eval/experiment.h"
#include "eval/sampler.h"
#include "serve/context_cache.h"
#include "serve/repl.h"
#include "serve/squid_service.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using bench::BuildImdbBench;
using bench::ImdbBench;

/// One shared small-scale IMDb + αDB for the whole suite (expensive).
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new ImdbBench(BuildImdbBench(0.2));
    workload_ = new std::vector<std::vector<std::string>>(BuildWorkload());
  }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  /// Example sets drawn from several intents' ground truths (distinct seeds
  /// give distinct sets) plus the manifest costar pair.
  static std::vector<std::vector<std::string>> BuildWorkload() {
    std::vector<std::vector<std::string>> sets;
    const ImdbManifest& m = bench_->data.manifest;
    sets.push_back({m.costar_a, m.costar_b});
    for (const char* id : {"IQ1", "IQ6", "IQ13", "IQ15"}) {
      auto query = FindQuery(bench_->queries, id);
      if (!query.ok()) continue;
      auto truth = GroundTruth(*bench_->data.db, *query.value());
      if (!truth.ok()) continue;
      for (uint64_t seed : {7u, 19u, 33u}) {
        Rng rng(seed);
        auto examples = SampleExamples(truth.value(), 5, &rng);
        if (examples.size() >= 2) sets.push_back(std::move(examples));
      }
    }
    return sets;
  }

  /// Workload set `i`, wrapping around.
  static const std::vector<std::string>& Set(size_t i) {
    return (*workload_)[i % workload_->size()];
  }

  /// Key for comparing two AbducedQuery results bit for bit.
  static std::string Fingerprint(const Result<AbducedQuery>& r) {
    if (!r.ok()) return "err:" + r.status().ToString();
    const AbducedQuery& q = r.value();
    std::string fp = "ok:" + q.entity_relation + "." + q.projection_attr;
    fp += "|" + ToSql(q.adb_query) + "|" + ToSql(q.original_query);
    char posterior[64];
    std::snprintf(posterior, sizeof(posterior), "|%.17g", q.log_posterior);
    fp += posterior;
    fp += "|filters=" + std::to_string(q.NumIncludedFilters()) + "/" +
          std::to_string(q.filters.size());
    for (const Value& k : q.entity_keys) fp += "|" + k.ToString();
    return fp;
  }

  /// Cold serial reference answers, one per workload set.
  static std::vector<std::string> SerialFingerprints() {
    Squid squid(bench_->adb.get());
    std::vector<std::string> out;
    out.reserve(workload_->size());
    for (const auto& examples : *workload_) {
      out.push_back(Fingerprint(squid.Discover(examples)));
    }
    return out;
  }

  /// An example set drawn from a ground truth whose lookup yields exactly
  /// one base query, with ambiguous examples; empty when none is found.
  static std::vector<std::string> AmbiguousSet(EntityMatch* match) {
    for (const BenchmarkQuery& query : bench_->queries) {
      auto truth = GroundTruth(*bench_->data.db, query);
      if (!truth.ok()) continue;
      for (uint64_t seed : {7u, 19u, 33u, 51u}) {
        Rng rng(seed);
        auto examples = SampleExamples(truth.value(), 6, &rng);
        auto matches = LookupExamples(*bench_->adb, examples);
        if (!matches.ok() || matches.value().size() != 1) continue;
        if (matches.value()[0].NumCombinations() <= 1.0) continue;
        *match = matches.value()[0];
        return examples;
      }
    }
    return {};
  }

  /// Entity keys of the first `n` person rows (for direct cache tests).
  static std::vector<Value> PersonKeys(size_t n) {
    auto table = bench_->data.db->GetTable("person");
    EXPECT_TRUE(table.ok());
    auto col = table.value()->ColumnByName("id");
    EXPECT_TRUE(col.ok());
    std::vector<Value> keys;
    for (size_t r = 0; r < n && r < table.value()->num_rows(); ++r) {
      keys.push_back(col.value()->ValueAt(r));
    }
    return keys;
  }

  static ImdbBench* bench_;
  static std::vector<std::vector<std::string>>* workload_;
};
ImdbBench* ServeFixture::bench_ = nullptr;
std::vector<std::vector<std::string>>* ServeFixture::workload_ = nullptr;

// ---------- identity contract ----------

TEST_F(ServeFixture, ServiceMatchesSerialAcrossThreadsAndCacheSizes) {
  const std::vector<std::string> expected = SerialFingerprints();
  struct Config {
    size_t threads;
    size_t cache_bytes;
  };
  // Thread counts and budgets chosen to cover: synchronous serial, parallel
  // uncached, parallel with a roomy cache, and parallel with a budget so
  // tight every shard keeps ~1 profile (constant evictions).
  const Config configs[] = {
      {1, 0}, {1, 8u << 20}, {4, 0}, {4, 8u << 20}, {8, 8u << 20}, {8, 4096},
  };
  for (const Config& config : configs) {
    ServeOptions options;
    options.threads = config.threads;
    options.cache_bytes = config.cache_bytes;
    options.cache_shards = 4;
    SquidService service(bench_->adb.get(), options);
    // Two passes: cold then warm (repeat answers must not drift after the
    // cache fills or evicts).
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < workload_->size(); ++i) {
        auto result = service.DiscoverSync((*workload_)[i]);
        EXPECT_EQ(Fingerprint(result), expected[i])
            << "threads=" << config.threads << " cache=" << config.cache_bytes
            << " pass=" << pass << " set=" << i;
      }
    }
    if (config.cache_bytes == 4096) {
      EXPECT_GT(service.stats().evictions, 0u)
          << "tight budget was expected to force evictions";
    }
  }
}

TEST_F(ServeFixture, PostEvictionAnswersStayIdentical) {
  const std::vector<std::string> expected = SerialFingerprints();
  ServeOptions options;
  options.threads = 2;
  options.cache_bytes = 16384;  // tight: the workload cycles profiles out
  options.cache_shards = 1;     // single shard makes eviction pressure certain
  SquidService service(bench_->adb.get(), options);
  // Warm set 0, cycle through everything else (forcing set 0's entities
  // out), then re-ask set 0.
  EXPECT_EQ(Fingerprint(service.DiscoverSync((*workload_)[0])), expected[0]);
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 1; i < workload_->size(); ++i) {
      EXPECT_EQ(Fingerprint(service.DiscoverSync((*workload_)[i])), expected[i]);
    }
  }
  ASSERT_GT(service.stats().evictions, 0u);
  EXPECT_EQ(Fingerprint(service.DiscoverSync((*workload_)[0])), expected[0]);
}

TEST_F(ServeFixture, ProviderSeamMatchesPlainSquid) {
  // A Squid with the cache interposed answers exactly like one without.
  ContextCache::Options cache_options;
  cache_options.max_bytes = 4u << 20;
  ContextCache cache(bench_->adb.get(), cache_options);
  Squid plain(bench_->adb.get());
  Squid cached(bench_->adb.get());
  cached.set_context_provider(&cache);
  for (const auto& examples : *workload_) {
    EXPECT_EQ(Fingerprint(cached.Discover(examples)),
              Fingerprint(plain.Discover(examples)));
  }
  EXPECT_GT(cache.stats().misses, 0u);
}

// ---------- boot from snapshot ----------

TEST_F(ServeFixture, SnapshotBootedServiceMatchesFreshlyBuilt) {
  const std::vector<std::string> expected = SerialFingerprints();
  const std::string path =
      ::testing::TempDir() + "squid_serve_boot_test.sqsnap";
  ASSERT_TRUE(bench_->adb->SaveSnapshot(path).ok());

  struct Config {
    size_t threads;
    size_t cache_bytes;
  };
  // Synchronous uncached and parallel cached: the two serve shapes a boot
  // must reproduce exactly.
  const Config configs[] = {{1, 0}, {4, 8u << 20}};
  for (const Config& config : configs) {
    ServeOptions options;
    options.threads = config.threads;
    options.cache_bytes = config.cache_bytes;
    options.cache_shards = 4;
    auto booted = BootServiceFromSnapshot(path, options);
    ASSERT_TRUE(booted.ok()) << booted.status().ToString();
    EXPECT_GT(booted.value()->load_seconds, 0.0);
    EXPECT_EQ(booted.value()->service->threads(),
              SquidService(bench_->adb.get(), options).threads());
    // Freshly built service over the ORIGINAL αDB, same options.
    SquidService fresh(bench_->adb.get(), options);
    // Two passes: the cold pass fills the booted service's cache from the
    // restored αDB, the warm pass answers from it; both must match the
    // fresh service and the cold serial reference.
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < workload_->size(); ++i) {
        auto from_snapshot =
            booted.value()->service->DiscoverSync((*workload_)[i]);
        EXPECT_EQ(Fingerprint(from_snapshot), expected[i])
            << "threads=" << config.threads << " cache=" << config.cache_bytes
            << " pass=" << pass << " set=" << i;
        EXPECT_EQ(Fingerprint(from_snapshot),
                  Fingerprint(fresh.DiscoverSync((*workload_)[i])));
      }
    }
    if (config.cache_bytes > 0) {
      EXPECT_GT(booted.value()->service->stats().hits, 0u)
          << "warm pass should have hit the booted service's cache";
    }
  }
  std::remove(path.c_str());
}

TEST_F(ServeFixture, BootFromCorruptSnapshotFailsCleanly) {
  const std::string path =
      ::testing::TempDir() + "squid_serve_boot_corrupt.sqsnap";
  ASSERT_TRUE(bench_->adb->SaveSnapshot(path).ok());
  // Flip one payload byte; the boot must refuse the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char byte = 0;
    f.seekg(100);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(100);
    f.write(&byte, 1);
  }
  auto booted = BootServiceFromSnapshot(path);
  ASSERT_FALSE(booted.ok());
  EXPECT_EQ(booted.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ---------- discover stats (hoisted lookup satellite) ----------

TEST_F(ServeFixture, DiscoverReportsHoistedLookups) {
  Squid squid(bench_->adb.get());
  auto result = squid.Discover((*workload_)[0]);
  ASSERT_TRUE(result.ok());
  const DiscoverStats& stats = result.value().stats;
  EXPECT_GT(stats.candidate_base_queries, 0u);
  EXPECT_GT(stats.candidates_abduced, 0u);
  EXPECT_LE(stats.candidates_abduced, stats.candidate_base_queries);
  // The candidate loop hands postings-resolved rows to context discovery,
  // so no candidate re-probes the PK index.
  EXPECT_GT(stats.entity_row_lookups_saved, 0u);
  EXPECT_EQ(stats.entity_row_lookups, 0u);

  // The key-only entry point has no rows to hoist.
  auto by_keys = squid.DiscoverForEntities(result.value().entity_relation,
                                           result.value().projection_attr,
                                           result.value().entity_keys);
  ASSERT_TRUE(by_keys.ok());
  EXPECT_GT(by_keys.value().stats.entity_row_lookups, 0u);
  EXPECT_EQ(ToSql(by_keys.value().adb_query), ToSql(result.value().adb_query));
}

// ---------- cache mechanics ----------

TEST_F(ServeFixture, CacheHitsAndCountersTrackProbes) {
  ContextCache::Options options;
  options.max_bytes = 4u << 20;
  options.shards = 2;
  ContextCache cache(bench_->adb.get(), options);
  std::vector<Value> keys = PersonKeys(3);
  ASSERT_EQ(keys.size(), 3u);

  for (const Value& key : keys) {
    bool hit = true;
    auto profile = cache.Profile("person", key, nullptr, &hit);
    ASSERT_TRUE(profile.ok());
    EXPECT_FALSE(hit);
  }
  ServeStats cold = cache.stats();
  EXPECT_EQ(cold.misses, 3u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.entries, 3u);
  EXPECT_GT(cold.bytes, 0u);

  for (const Value& key : keys) {
    bool hit = false;
    auto profile = cache.Profile("person", key, nullptr, &hit);
    ASSERT_TRUE(profile.ok());
    EXPECT_TRUE(hit);
  }
  ServeStats warm = cache.stats();
  EXPECT_EQ(warm.hits, 3u);
  EXPECT_EQ(warm.misses, 3u);
  EXPECT_DOUBLE_EQ(warm.HitRate(), 0.5);

  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.stats().hits, 3u);  // counters survive Clear
}

TEST_F(ServeFixture, CacheRecordsIntoTheGivenRegistry) {
  obs::MetricsRegistry registry;  // declared first: outlives the cache
  ContextCache::Options options;
  options.shards = 2;
  ContextCache cache(bench_->adb.get(), options, &registry);
  const std::vector<Value> keys = PersonKeys(4);
  ASSERT_EQ(keys.size(), 4u);
  for (const Value& key : keys) {
    ASSERT_TRUE(cache.Profile("person", key, nullptr, nullptr).ok());
  }
  ASSERT_TRUE(cache.Profile("person", keys[0], nullptr, nullptr).ok());
  EXPECT_EQ(registry.GetCounter("cache_misses")->Value(), 4u);
  EXPECT_EQ(registry.GetCounter("cache_inserts")->Value(), 4u);
  EXPECT_EQ(registry.GetCounter("cache_hits")->Value(), 1u);
  EXPECT_EQ(registry.GetGauge("cache_entries")->Value(), 4);
  EXPECT_EQ(registry.GetGauge("cache_bytes")->Value(),
            static_cast<int64_t>(cache.ApproxBytes()));

  // Clear empties the gauges; the counters keep their totals.
  cache.Clear();
  EXPECT_EQ(registry.GetGauge("cache_entries")->Value(), 0);
  EXPECT_EQ(registry.GetGauge("cache_bytes")->Value(), 0);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_F(ServeFixture, CachedProfileMatchesDirectBuild) {
  ContextCache cache(bench_->adb.get());
  std::vector<Value> keys = PersonKeys(2);
  ASSERT_GE(keys.size(), 1u);
  auto direct = BuildEntityContextProfile(*bench_->adb, "person", keys[0]);
  ASSERT_TRUE(direct.ok());
  auto cached = cache.Profile("person", keys[0], nullptr, nullptr);
  ASSERT_TRUE(cached.ok());
  const EntityContextProfile& a = direct.value();
  const EntityContextProfile& b = *cached.value();
  ASSERT_EQ(a.observations.size(), b.observations.size());
  EXPECT_EQ(a.row, b.row);
  for (size_t d = 0; d < a.observations.size(); ++d) {
    EXPECT_EQ(a.observations[d].basic_value, b.observations[d].basic_value);
    EXPECT_EQ(a.observations[d].rows.total, b.observations[d].rows.total);
    EXPECT_EQ(a.observations[d].rows.begin, b.observations[d].rows.begin);
    EXPECT_EQ(a.observations[d].rows.end, b.observations[d].rows.end);
  }
}

/// Counts the bytes the standard library asks of it, so the cache's charge
/// can be checked against the real node and control-block layouts.
template <typename T>
struct CountingAllocator {
  using value_type = T;
  static inline size_t bytes = 0;
  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) {}  // NOLINT
  T* allocate(size_t n) {
    CountingAllocator<char>::bytes += n * sizeof(T);
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) { std::allocator<T>().deallocate(p, n); }
  template <typename U>
  bool operator==(const CountingAllocator<U>&) const { return true; }
  template <typename U>
  bool operator!=(const CountingAllocator<U>&) const { return false; }
};

/// Bytes `fn` has the standard library allocate through CountingAllocator.
template <typename Fn>
size_t CountedBytes(Fn&& fn) {
  const size_t before = CountingAllocator<char>::bytes;
  fn();
  return CountingAllocator<char>::bytes - before;
}

TEST(ContextCacheAccountingTest, EntryOverheadMatchesTheLibraryLayout) {
  using Entry = ContextCache::Entry;
  using Key = ContextCache::CacheKey;
  using Iterator = std::list<Entry>::iterator;
  std::list<Entry, CountingAllocator<Entry>> lru;
  const size_t list_node = CountedBytes([&] { lru.emplace_front(); });

  std::unordered_map<Key, Iterator, ContextCache::CacheKeyHash, std::equal_to<Key>,
                     CountingAllocator<std::pair<const Key, Iterator>>>
      map;
  map.reserve(16);  // the bucket array, allocated apart from the nodes
  const size_t map_node = CountedBytes([&] { map.emplace(Key{}, lru.begin()); });

  const size_t shared = CountedBytes([] {
    (void)std::allocate_shared<const EntityContextProfile>(
        CountingAllocator<EntityContextProfile>());
  });
  const size_t control_block = shared - sizeof(EntityContextProfile);

  // One bucket slot per entry on top of the nodes.
  EXPECT_EQ(ContextCache::kEntryOverheadBytes,
            list_node + map_node + sizeof(void*) + control_block);
}

TEST(ContextCacheAccountingTest, ProfileChargesOnlyWhatItHolds) {
  EntityContextProfile profile;
  profile.observations.resize(3);
  profile.observations[0].basic_value = Value("M");  // inline (small string)
  profile.observations[1].basic_value = Value(int64_t{1970});
  const size_t fixed = sizeof(EntityContextProfile) +
                       profile.observations.capacity() * sizeof(DescriptorObservation);
  EXPECT_EQ(profile.ApproxBytes(), fixed);

  const std::string long_string(200, 'x');
  profile.observations[2].basic_value = Value(long_string);
  EXPECT_EQ(profile.ApproxBytes(),
            fixed + profile.observations[2].basic_value.AsString().capacity() + 1);
}

TEST_F(ServeFixture, PersonProfileIsAboutOneKilobyte) {
  // A profile views the αDB's derived relations: its footprint is its
  // observation array, however many associations the person has.
  for (const Value& key : PersonKeys(20)) {
    auto profile = BuildEntityContextProfile(*bench_->adb, "person", key);
    ASSERT_TRUE(profile.ok());
    EXPECT_LE(profile.value().ApproxBytes(), 1228u);
  }
}

TEST_F(ServeFixture, CacheChargesProfileBytesPlusEntryOverhead) {
  ContextCache::Options options;
  options.shards = 1;
  options.max_bytes = 64u << 20;
  ContextCache cache(bench_->adb.get(), options);
  size_t expected = 0;
  for (const Value& key : PersonKeys(5)) {
    auto profile = cache.Profile("person", key, nullptr, nullptr);
    ASSERT_TRUE(profile.ok());
    expected += profile.value()->ApproxBytes() + ContextCache::kEntryOverheadBytes;
    EXPECT_EQ(cache.ApproxBytes(), expected);
  }
}

TEST_F(ServeFixture, LruEvictsLeastRecentlyUsedFirst) {
  std::vector<Value> keys = PersonKeys(3);
  ASSERT_EQ(keys.size(), 3u);

  // Measure each profile's charged bytes with an unbounded single-shard
  // cache, so the bounded cache below can hold exactly two of the three.
  size_t bytes[3];
  {
    ContextCache::Options options;
    options.shards = 1;
    options.max_bytes = 64u << 20;
    ContextCache probe(bench_->adb.get(), options);
    size_t previous = 0;
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(probe.Profile("person", keys[i], nullptr, nullptr).ok());
      size_t now = probe.ApproxBytes();
      bytes[i] = now - previous;
      previous = now;
      ASSERT_GT(bytes[i], 0u);
    }
  }

  ContextCache::Options options;
  options.shards = 1;
  options.max_bytes = bytes[0] + bytes[1] + bytes[2] - 1;  // any two fit
  ContextCache cache(bench_->adb.get(), options);
  // LRU: [0], then [1, 0].
  ASSERT_TRUE(cache.Profile("person", keys[0], nullptr, nullptr).ok());
  ASSERT_TRUE(cache.Profile("person", keys[1], nullptr, nullptr).ok());
  bool hit = false;
  ASSERT_TRUE(cache.Profile("person", keys[0], nullptr, &hit).ok());
  EXPECT_TRUE(hit);  // LRU: [0, 1]
  // Evicts 1.
  ASSERT_TRUE(cache.Profile("person", keys[2], nullptr, nullptr).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Contains("person", keys[0]));
  EXPECT_FALSE(cache.Contains("person", keys[1]));
  EXPECT_TRUE(cache.Contains("person", keys[2]));

  // The evicted entity rebuilds on demand — as a miss — and re-enters,
  // evicting the now-least-recent key 0.
  hit = true;
  ASSERT_TRUE(cache.Profile("person", keys[1], nullptr, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.Contains("person", keys[0]));
  EXPECT_TRUE(cache.Contains("person", keys[2]));
  EXPECT_TRUE(cache.Contains("person", keys[1]));
}

TEST_F(ServeFixture, ForeignKeysAreUncacheableButServed) {
  ContextCache cache(bench_->adb.get());
  // A key string that was never interned cannot be symbol-keyed; the lookup
  // itself must still work (uncached) or fail cleanly.
  auto missing =
      cache.Profile("person", Value("no-such-entity-xyzzy"), nullptr, nullptr);
  EXPECT_FALSE(missing.ok());  // no such person row
  EXPECT_GE(cache.stats().uncacheable, 1u);
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST_F(ServeFixture, DisambiguationProbesEachCandidateOnceAndHandsOnTheChosen) {
  EntityMatch match;
  const std::vector<std::string> examples = AmbiguousSet(&match);
  ASSERT_FALSE(examples.empty()) << "no ambiguous single-match example set";
  std::vector<size_t> candidates;
  for (const std::vector<size_t>& rows : match.candidate_rows) {
    candidates.insert(candidates.end(), rows.begin(), rows.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  ASSERT_GT(candidates.size(), examples.size());

  ContextCache cache(bench_->adb.get());
  Squid cached(bench_->adb.get());
  cached.set_context_provider(&cache);
  const std::string expected =
      Fingerprint(Squid(bench_->adb.get()).Discover(examples));
  // Cold: disambiguation misses once per distinct candidate entity; context
  // discovery merges the chosen profiles without probing again.
  EXPECT_EQ(Fingerprint(cached.Discover(examples)), expected);
  ServeStats cold = cache.stats();
  EXPECT_EQ(cold.misses, candidates.size());
  EXPECT_EQ(cold.hits, 0u);
  // Warm: every candidate probe hits, and still only one probe each.
  EXPECT_EQ(Fingerprint(cached.Discover(examples)), expected);
  ServeStats warm = cache.stats();
  EXPECT_EQ(warm.misses, candidates.size());
  EXPECT_EQ(warm.hits, candidates.size());
}

TEST_F(ServeFixture, OneProfileCacheAnswersMatchUncachedAtAnyThreadCount) {
  // Budget for a single profile, so nearly every insert evicts — during
  // disambiguation as well as context discovery.
  std::vector<Value> keys = PersonKeys(1);
  ASSERT_EQ(keys.size(), 1u);
  size_t one_profile = 0;
  {
    ContextCache probe(bench_->adb.get());
    ASSERT_TRUE(probe.Profile("person", keys[0], nullptr, nullptr).ok());
    one_profile = probe.ApproxBytes();
  }
  std::vector<std::vector<std::string>> sets = *workload_;
  EntityMatch match;
  std::vector<std::string> ambiguous = AmbiguousSet(&match);
  ASSERT_FALSE(ambiguous.empty());
  sets.push_back(std::move(ambiguous));
  Squid uncached(bench_->adb.get());
  std::vector<std::string> expected;
  for (const auto& examples : sets) {
    expected.push_back(Fingerprint(uncached.Discover(examples)));
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ServeOptions options;
    options.threads = threads;
    options.cache_bytes = one_profile;
    options.cache_shards = 1;
    SquidService service(bench_->adb.get(), options);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(Fingerprint(service.DiscoverSync(sets[i])), expected[i])
            << "threads=" << threads << " pass=" << pass << " set=" << i;
      }
    }
    EXPECT_GT(service.stats().evictions, 0u);
  }
}

// ---------- concurrent sessions ----------

TEST_F(ServeFixture, EightThreadConcurrentSessionsStayIdentical) {
  const std::vector<std::string> expected = SerialFingerprints();
  ServeOptions options;
  options.threads = 8;
  // Small bound: with one request in flight per client, the 4 clients
  // never have more than 4 waiting, so DiscoverSync never sheds.
  options.queue_capacity = 4;
  options.cache_bytes = 1u << 20;
  options.cache_shards = 8;
  SquidService service(bench_->adb.get(), options);

  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 12;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the workload from its own offset: repeats across
      // clients hit the cache while the walk keeps unique sets flowing.
      for (size_t r = 0; r < kRequestsPerClient; ++r) {
        size_t i = (c * 3 + r) % workload_->size();
        auto result = service.DiscoverSync((*workload_)[i]);
        if (Fingerprint(result) != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.hits, 0u);  // repeats across clients must share profiles
}

TEST_F(ServeFixture, UnknownExamplesFailCleanly) {
  SquidService service(bench_->adb.get(), {});
  auto result = service.DiscoverSync({"entirely-unknown-string-xyzzy"});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(service.stats().failed, 1u);
}

// ---------- repl ----------

TEST_F(ServeFixture, ReplAnswersScriptedRequests) {
  ServeOptions options;
  options.threads = 2;
  SquidService service(bench_->adb.get(), options);
  const ImdbManifest& m = bench_->data.manifest;
  std::istringstream in("# comment\n" + m.costar_a + "; " + m.costar_b +
                        "\n" + m.costar_a + "; " + m.costar_b + " | " +
                        m.costar_b + "; " + m.costar_a +
                        "\nno-such-example-xyzzy\n.stats\n.quit\n");
  std::ostringstream out;
  Repl repl(&service, &in, &out);
  Repl::RunStats stats = repl.Run();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 1u);
  const std::string text = out.str();
  EXPECT_NE(text.find("ok base=person.name"), std::string::npos);
  EXPECT_NE(text.find("sql SELECT"), std::string::npos);
  EXPECT_NE(text.find("err "), std::string::npos);
  EXPECT_NE(text.find("cache hits="), std::string::npos);
}

TEST_F(ServeFixture, ReplReportsMalformedLinesWithoutDispatching) {
  SquidService service(bench_->adb.get(), {});
  const ImdbManifest& m = bench_->data.manifest;
  // An all-';' line, an all-'|' line, and a batch with one empty segment:
  // every malformed piece gets an err answer (the client is waiting), none
  // are dispatched, and valid segments of a mixed batch still run.
  std::istringstream in(";;;\n|||\n" + m.costar_a + "; " + m.costar_b +
                        " | ;; \n.quit\n");
  std::ostringstream out;
  Repl repl(&service, &in, &out);
  Repl::RunStats stats = repl.Run();
  EXPECT_EQ(stats.requests, 1u);  // only the costar segment dispatched
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("err empty request segment"), std::string::npos);
  EXPECT_NE(text.find("err empty request line (only separators)"),
            std::string::npos);
  EXPECT_NE(text.find("ok base="), std::string::npos);
  EXPECT_EQ(service.stats().requests, 1u);
}

TEST_F(ServeFixture, ReplRestoresCallerStreamState) {
  SquidService service(bench_->adb.get(), {});
  const ImdbManifest& m = bench_->data.manifest;
  // Responses print with precision(6) + std::fixed and .stats with
  // precision(3); none of it may leak into the caller's stream.
  std::istringstream in(m.costar_a + "; " + m.costar_b + "\n.stats\n.quit\n");
  std::ostringstream out;
  out.precision(11);
  out.setf(std::ios_base::scientific, std::ios_base::floatfield);
  const std::ios_base::fmtflags flags_before = out.flags();
  Repl repl(&service, &in, &out);
  Repl::RunStats stats = repl.Run();
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(out.precision(), 11);
  EXPECT_EQ(out.flags(), flags_before);
  // The response itself did use fixed notation for the posterior.
  EXPECT_NE(out.str().find("posterior=-"), std::string::npos);
  EXPECT_NE(out.str().find("hit_rate="), std::string::npos);
}

TEST_F(ServeFixture, ReplParsingSplitsExamplesAndBatches) {
  EXPECT_EQ(Repl::ParseExamples(" a ; b;; c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Repl::SplitBatch("a; b | c"),
            (std::vector<std::string>{"a; b", "c"}));
  EXPECT_EQ(Repl::SplitBatch("solo"), (std::vector<std::string>{"solo"}));
}

// ---------- shutdown race + rejection accounting ----------

TEST_F(ServeFixture, StatsPartitionRequestsIntoCompletedAndRejected) {
  // A private registry isolates this service's histograms from every other
  // test's traffic (declared before the service: must outlive it).
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.threads = 2;
  options.metrics = &registry;
  SquidService service(bench_->adb.get(), options);
  // A served mix: sync answers plus one failure.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service.DiscoverSync((*workload_)[0]).ok());
  }
  EXPECT_FALSE(service.DiscoverSync({"no-such-example-xyzzy"}).ok());
  // Shed requests: after Close, Submit and DiscoverSync both reject.
  service.Close();
  EXPECT_EQ(service.DiscoverSync((*workload_)[0]).status().code(),
            StatusCode::kNotSupported);
  EXPECT_FALSE(service.Submit((*workload_)[0],
                              [](Result<AbducedQuery>) { ADD_FAILURE(); }));

  ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.completed, 4u);  // the requests that actually ran
  EXPECT_EQ(stats.failed, 1u);     // ... of which one answered non-OK
  EXPECT_EQ(stats.rejected, 2u);   // shed, disjoint from completed
  // The invariant the double-counting bug broke: at quiescence every
  // request is either completed or rejected, never both.
  EXPECT_EQ(stats.requests, stats.completed + stats.rejected);
  // The latency histograms partition the same way: exactly the completed
  // requests were measured (rejected ones never reach a worker), and the
  // percentile chain is ordered.
  EXPECT_EQ(stats.queue_wait_ns.count, stats.completed);
  EXPECT_EQ(stats.request_ns.count, stats.completed);
  EXPECT_LE(stats.RequestP50Ns(), stats.RequestP99Ns());
  EXPECT_LE(stats.RequestP99Ns(), stats.RequestMaxNs());
  EXPECT_LE(stats.QueueWaitP50Ns(), stats.QueueWaitP99Ns());
}

TEST_F(ServeFixture, ServicesWithoutARegistryCountIndependently) {
  // Each service built without ServeOptions::metrics owns its registry, so
  // one service's traffic never shows in another's stats.
  ServeOptions options;
  options.threads = 1;
  SquidService a(bench_->adb.get(), options);
  SquidService b(bench_->adb.get(), options);
  SquidService reference(bench_->adb.get(), options);
  EXPECT_NE(&a.metrics(), &b.metrics());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.DiscoverSync(Set(0)).ok());
  ASSERT_TRUE(b.DiscoverSync(Set(1)).ok());
  ASSERT_TRUE(reference.DiscoverSync(Set(1)).ok());

  const ServeStats sa = a.stats();
  const ServeStats sb = b.stats();
  const ServeStats sr = reference.stats();
  EXPECT_EQ(sa.requests, 3u);
  EXPECT_EQ(sa.request_ns.count, 3u);
  EXPECT_GT(sa.hits, 0u);  // the repeats were served from a's cache
  EXPECT_EQ(sb.requests, 1u);
  EXPECT_EQ(sb.completed, 1u);
  EXPECT_EQ(sb.request_ns.count, 1u);
  EXPECT_EQ(sb.queue_wait_ns.count, 1u);
  // b counts exactly what a cold service answering the same set counts.
  EXPECT_EQ(sb.hits, sr.hits);
  EXPECT_EQ(sb.misses, sr.misses);
  EXPECT_EQ(sb.inserts, sr.inserts);
  EXPECT_EQ(sb.entries, sr.entries);
  EXPECT_EQ(sb.bytes, sr.bytes);

  // The stats fields are the registry's metrics.
  obs::MetricsRegistry& m = a.metrics();
  EXPECT_EQ(sa.hits, m.GetCounter("cache_hits")->Value());
  EXPECT_EQ(sa.misses, m.GetCounter("cache_misses")->Value());
  EXPECT_EQ(sa.evictions, m.GetCounter("cache_evictions")->Value());
  EXPECT_EQ(sa.inserts, m.GetCounter("cache_inserts")->Value());
  EXPECT_EQ(sa.uncacheable, m.GetCounter("cache_uncacheable")->Value());
  EXPECT_EQ(sa.entries, static_cast<size_t>(m.GetGauge("cache_entries")->Value()));
  EXPECT_EQ(sa.bytes, static_cast<size_t>(m.GetGauge("cache_bytes")->Value()));
  EXPECT_EQ(sa.requests, m.GetCounter("service_requests")->Value());
  EXPECT_EQ(sa.completed, m.GetCounter("service_completed")->Value());
  EXPECT_EQ(sa.failed, m.GetCounter("service_failed")->Value());
  EXPECT_EQ(sa.rejected, m.GetCounter("service_rejected")->Value());
  EXPECT_EQ(sa.request_ns, m.GetHistogram("squid_serve_request_ns")->Snapshot());
}

/// A gate the test opens once: callbacks that enter it block until Open().
class Gate {
 public:
  /// Records the caller as entered, then blocks until the gate opens.
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitForEntered(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t entered_ = 0;
  bool open_ = false;
};

TEST_F(ServeFixture, SubmitShedsExactlyWhenQueueCapacityRequestsWait) {
  ServeOptions options;
  options.threads = 2;
  options.queue_capacity = 2;
  SquidService service(bench_->adb.get(), options);
  // Hold both workers inside completion callbacks.
  Gate gate;
  auto hold = [&gate](Result<AbducedQuery>) { gate.Enter(); };
  ASSERT_TRUE(service.Submit(Set(0), hold));
  ASSERT_TRUE(service.Submit(Set(1), hold));
  gate.WaitForEntered(2);
  EXPECT_EQ(service.stats().queue_depth, 0u);  // both started

  // With no worker free, exactly queue_capacity more requests are admitted
  // to wait; the next one is shed without its callback ever running.
  std::atomic<int> answered{0};
  auto count = [&answered](Result<AbducedQuery>) { answered.fetch_add(1); };
  EXPECT_TRUE(service.Submit(Set(2), count));
  EXPECT_TRUE(service.Submit(Set(3), count));
  EXPECT_EQ(service.stats().queue_depth, 2u);
  EXPECT_FALSE(
      service.Submit(Set(4), [](Result<AbducedQuery>) { ADD_FAILURE(); }));
  EXPECT_EQ(service.stats().rejected, 1u);

  gate.Open();
  while (answered.load() < 2) std::this_thread::yield();
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.requests, stats.completed + stats.rejected);
}

TEST_F(ServeFixture, SubmitCompletesInlineOnlyOnASingleThreadService) {
  // TcpServer's in-flight accounting relies on this: at threads == 1 the
  // callback has run on the submitting thread before Submit returns; with
  // workers it runs on one of them.
  for (size_t threads : {size_t{1}, size_t{2}}) {
    ServeOptions options;
    options.threads = threads;
    SquidService service(bench_->adb.get(), options);
    std::promise<std::thread::id> ran_on;
    std::future<std::thread::id> done = ran_on.get_future();
    ASSERT_TRUE(service.Submit(Set(0), [&ran_on](Result<AbducedQuery>) {
      ran_on.set_value(std::this_thread::get_id());
    }));
    if (threads == 1) {
      ASSERT_EQ(done.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_EQ(done.get(), std::this_thread::get_id());
    } else {
      EXPECT_NE(done.get(), std::this_thread::get_id());
    }
  }
}

TEST_F(ServeFixture, CloseRacingConcurrentAdmissionsNeverLosesARequest) {
  // The shutdown race: producers hammer Submit/DiscoverSync while another
  // thread Close()es the service mid-stream, then the service is destroyed.
  // Every Submit either returns false or has its callback run exactly once,
  // every DiscoverSync returns, and nothing crashes. Run several rounds to
  // vary the interleaving; TSan gives this teeth.
  for (int round = 0; round < 6; ++round) {
    ServeOptions options;
    options.threads = 2 + (round % 2);
    options.queue_capacity = 2;
    auto service = std::make_unique<SquidService>(bench_->adb.get(), options);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 6;
    // Callback runs per Submit (odd i); DiscoverSync handles even i.
    std::vector<std::atomic<int>> calls(kProducers * kPerProducer);
    for (auto& c : calls) c.store(0);
    std::vector<char> admitted(calls.size(), 0);
    std::atomic<int> synced{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const auto& examples = (*workload_)[(p + i) % workload_->size()];
          const size_t slot = static_cast<size_t>(p * kPerProducer + i);
          if (i % 2 == 0) {
            Result<AbducedQuery> result = service->DiscoverSync(examples);
            if (!result.ok()) {
              EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
            }
            synced.fetch_add(1);
          } else {
            admitted[slot] = service->Submit(
                examples, [&calls, slot](Result<AbducedQuery>) {
                  calls[slot].fetch_add(1);
                });
          }
        }
      });
    }
    // Close midway through the storm (round 0 closes immediately).
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(round * 3));
    }
    service->Close();
    for (auto& t : producers) t.join();
    EXPECT_EQ(synced.load(), kProducers * kPerProducer / 2);
    const size_t admitted_count =
        static_cast<size_t>(std::count(admitted.begin(), admitted.end(), 1));
    auto answered = [&calls] {
      size_t n = 0;
      for (const auto& c : calls) n += static_cast<size_t>(c.load());
      return n;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (answered() < admitted_count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ServeStats stats = service->stats();
    EXPECT_EQ(stats.requests, stats.completed + stats.rejected);
    service.reset();  // ~SquidService after Close: second close is a no-op
    for (size_t slot = 0; slot < calls.size(); ++slot) {
      EXPECT_EQ(calls[slot].load(), admitted[slot] ? 1 : 0) << "slot " << slot;
    }
  }
}

// ---------- observability: byte identity and phase traces ----------

TEST_F(ServeFixture, AnswersAreByteIdenticalWithTracingOnOrOff) {
  // The observability contract: tracing and metrics only watch the
  // pipeline. Tracing on and off at threads {1, 8} must fingerprint
  // identically to the cold serial reference.
  const std::vector<std::string> expected = SerialFingerprints();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    for (bool trace_on : {false, true}) {
      obs::MetricsRegistry registry;
      ServeOptions options;
      options.threads = threads;
      options.metrics = &registry;
      SquidService service(bench_->adb.get(), options);
      service.set_tracing(trace_on);
      for (size_t i = 0; i < workload_->size(); ++i) {
        EXPECT_EQ(Fingerprint(service.DiscoverSync((*workload_)[i])),
                  expected[i])
            << "threads=" << threads << " trace=" << trace_on << " set=" << i;
      }
    }
  }
}

TEST_F(ServeFixture, LastTraceBreaksTheRequestIntoPipelinePhases) {
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.threads = 4;
  options.metrics = &registry;
  SquidService service(bench_->adb.get(), options);
  service.set_tracing(true);
  EXPECT_EQ(service.last_trace(), nullptr);  // nothing traced yet
  ASSERT_TRUE(service.DiscoverSync((*workload_)[0]).ok());
  std::shared_ptr<const obs::RequestTrace> trace = service.last_trace();
  ASSERT_NE(trace, nullptr);
  // The request passed through the pipeline: entity lookup once, the
  // queue-wait span once, and at least one candidate's context + abduction
  // + query-build phases (fan-out may run several).
  EXPECT_EQ(trace->PhaseCalls(obs::Phase::kEntityLookup), 1u);
  EXPECT_EQ(trace->PhaseCalls(obs::Phase::kQueueWait), 1u);
  EXPECT_GE(trace->PhaseCalls(obs::Phase::kDisambiguation), 1u);
  EXPECT_GE(trace->PhaseCalls(obs::Phase::kContextDiscovery), 1u);
  EXPECT_GE(trace->PhaseCalls(obs::Phase::kAbduction), 1u);
  EXPECT_GE(trace->PhaseCalls(obs::Phase::kQueryBuild), 1u);
  EXPECT_GT(trace->PhaseNs(obs::Phase::kAbduction), 0u);
  // Runtime toggle: turning tracing off stops replacing the last trace.
  service.set_tracing(false);
  ASSERT_TRUE(service.DiscoverSync((*workload_)[1]).ok());
  EXPECT_EQ(service.last_trace(), trace);
}

TEST_F(ServeFixture, ReplMetricsAndTraceCommandsWork) {
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.threads = 1;
  options.metrics = &registry;
  SquidService service(bench_->adb.get(), options);
  const ImdbManifest& m = bench_->data.manifest;
  std::istringstream in(".trace on\n" + m.costar_a + "; " + m.costar_b +
                        "\n.trace\n.metrics\n.stats\n.trace off\n.quit\n");
  std::ostringstream out;
  Repl repl(&service, &in, &out);
  Repl::RunStats run = repl.Run();
  EXPECT_EQ(run.requests, 1u);
  EXPECT_EQ(run.ok, 1u);
  const std::string text = out.str();
  EXPECT_NE(text.find("trace on"), std::string::npos);
  EXPECT_NE(text.find("trace of last request:"), std::string::npos);
  EXPECT_NE(text.find("entity_lookup"), std::string::npos);
  EXPECT_NE(text.find("# TYPE squid_serve_request_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("latency p50="), std::string::npos);
  EXPECT_NE(text.find("queue_wait p50="), std::string::npos);
  EXPECT_NE(text.find("trace off"), std::string::npos);
}

}  // namespace
}  // namespace squid
