#ifndef SQUID_SERVE_CONTEXT_CACHE_H_
#define SQUID_SERVE_CONTEXT_CACHE_H_

/// \file context_cache.h
/// \brief Sharded, symbol-keyed LRU cache of per-entity context profiles.
///
/// Context discovery splits into a per-entity half (BuildEntityContextProfile
/// — a PK-index resolution when the row is not known, then one array read per
/// descriptor: profiles view the αDB's derived relations rather than copy
/// them, so a person profile is about 1 KB) and a per-example-set merge. The
/// per-entity half depends only on (relation, entity key), both of which
/// resolve to interned StringPool symbols, so the cache keys on integers and
/// never hashes strings on the hit path. Entity disambiguation
/// scores its candidates on the same profiles, so an ambiguous example's
/// alternatives are cached too, and the chosen ones are handed on to
/// context discovery without a second probe.
///
/// Concurrency follows the sharded-interner shape of storage/string_pool.h:
/// entries are spread over N shards by key hash, each shard owns a mutex, an
/// open hash map, and an intrusive LRU list with a per-shard byte budget
/// (total budget / shards). Profiles are immutable and handed out as
/// shared_ptr, so a reader keeps its profile alive across a concurrent
/// eviction. Profile builds run OUTSIDE the shard lock; when two threads
/// race on the same missing key both build (deterministically identical)
/// profiles and the insert dedupes.
///
/// Counters (hits, misses, inserts, evictions, uncacheable probes) and the
/// live entry/byte gauges are metrics of the registry the cache is given —
/// the serving SquidService's — so stats() and every exposition read one
/// store.
///
/// Byte accounting: each entry charges its profile's ApproxBytes plus
/// kEntryOverheadBytes, the list node, hash-map node and shared_ptr control
/// block that hold it (serve_test checks the latter against what the
/// standard library allocates).
///
/// Identity contract: profiles are a pure function of the immutable αDB, so
/// serving from the cache — to disambiguation and context discovery alike,
/// before or after any evictions, at any thread count — yields the same
/// disambiguation picks and answers bit-identical to a Squid without a
/// provider (uncached profile builds). serve_test asserts this down to
/// posteriors.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/status.h"
#include "core/context_discovery.h"
#include "obs/metrics.h"
#include "serve/serve_stats.h"
#include "storage/string_pool.h"

namespace squid {

/// \brief Memoizes per-entity context profiles; plugs into Squid as its
/// ContextProvider. All member functions are safe for concurrent use.
class ContextCache : public ContextProvider {
 public:
  struct Options {
    /// Total byte budget across shards (approximate; per-shard LRU evicts
    /// down to budget / shards). 0 keeps nothing (every probe misses).
    size_t max_bytes = 8u << 20;
    /// Shard count (rounded up to a power of two, at least 1).
    size_t shards = 8;
  };

  explicit ContextCache(const AbductionReadyDb* adb);
  /// Records into `metrics` (not owned; must outlive the cache), or into a
  /// registry of the cache's own when it is null.
  ContextCache(const AbductionReadyDb* adb, Options options,
               obs::MetricsRegistry* metrics = nullptr);
  ~ContextCache() override;

  ContextCache(const ContextCache&) = delete;
  ContextCache& operator=(const ContextCache&) = delete;

  /// ContextProvider seam: the cached profile of one entity (built and
  /// inserted on miss). `known_row`, when non-null, is trusted as the
  /// entity's row (sparing a miss its PK-index resolution); `from_cache`,
  /// when non-null, reports whether the profile was a hit.
  Result<std::shared_ptr<const EntityContextProfile>> Profile(
      const std::string& entity_relation, const Value& entity_key,
      const size_t* known_row, bool* from_cache) const override;

  /// True when the entity's profile is currently cached. Does not touch LRU
  /// order or counters (test/inspection hook).
  bool Contains(const std::string& entity_relation, const Value& entity_key) const;

  /// Drops every entry (counters are retained).
  void Clear();

  /// The cache fields of a ServeStats, read from the registry (the service
  /// overlays its own).
  ServeStats stats() const;

  size_t ApproxBytes() const;
  size_t num_entries() const;
  size_t num_shards() const { return shard_mask_ + 1; }
  size_t shard_budget_bytes() const { return shard_budget_; }

  /// (relation symbol, value tag, packed value) — see MakeKey.
  struct CacheKey {
    Symbol relation = kNoSymbol;
    uint8_t tag = 0;
    uint64_t packed = 0;

    bool operator==(const CacheKey& o) const {
      return relation == o.relation && tag == o.tag && packed == o.packed;
    }
  };

  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      // splitmix64 over the packed fields.
      uint64_t x = k.packed ^ (uint64_t{k.relation} << 8) ^ k.tag;
      x += 0x9E3779B97F4A7C15ULL;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };

  /// One cached profile, as an LRU list node holds it.
  struct Entry {
    CacheKey key;
    std::shared_ptr<const EntityContextProfile> profile;
    size_t bytes = 0;
  };

  /// Bytes an entry charges besides its profile's ApproxBytes, from the
  /// layout (libstdc++'s) of the parts that hold it: the LRU list node (two
  /// links and the Entry), the hash-map node (a link, the key with its list
  /// iterator, and the cached hash code) with its bucket slot (the map
  /// keeps at least one bucket per entry), and make_shared's control block
  /// ahead of the profile (a vtable pointer and the use and weak counts).
  static constexpr size_t kEntryOverheadBytes =
      (2 * sizeof(void*) + sizeof(Entry)) +
      (sizeof(void*) + sizeof(std::pair<const CacheKey, std::list<Entry>::iterator>) +
       sizeof(size_t) + sizeof(void*)) +
      (sizeof(void*) + 2 * sizeof(int));

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map;
    size_t bytes = 0;
  };

  /// Resolves (relation, key) to a symbol key; false when either string is
  /// outside the pool (then the caller builds uncached).
  bool MakeKey(const std::string& entity_relation, const Value& entity_key,
               CacheKey* out) const;

  Shard& ShardFor(const CacheKey& key) const {
    return shards_[CacheKeyHash{}(key) & shard_mask_];
  }

  const AbductionReadyDb* adb_;
  std::shared_ptr<const StringPool> pool_;  // symbol space of the keys
  size_t max_bytes_;
  size_t shard_budget_;
  size_t shard_mask_;
  mutable std::vector<Shard> shards_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  // when none is given
  // Resolved once at construction (stable registry pointers).
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* inserts_;
  obs::Counter* uncacheable_;
  obs::Gauge* entries_;
  obs::Gauge* bytes_;
};

}  // namespace squid

#endif  // SQUID_SERVE_CONTEXT_CACHE_H_
