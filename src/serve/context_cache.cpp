#include "serve/context_cache.h"

#include <algorithm>
#include <cstring>

namespace squid {

namespace {

/// Rounds up to a power of two (>= 1).
size_t PowerOfTwoAtLeast(size_t n) {
  size_t p = 1;
  while (p < n && p < (size_t{1} << 16)) p <<= 1;
  return p;
}

}  // namespace

ContextCache::ContextCache(const AbductionReadyDb* adb)
    : ContextCache(adb, Options{}) {}

ContextCache::ContextCache(const AbductionReadyDb* adb, Options options,
                           obs::MetricsRegistry* metrics)
    : adb_(adb),
      pool_(adb->inverted_index().pool_shared()),
      max_bytes_(options.max_bytes),
      shard_mask_(PowerOfTwoAtLeast(options.shards == 0 ? 1 : options.shards) - 1),
      shards_(shard_mask_ + 1) {
  shard_budget_ = max_bytes_ / (shard_mask_ + 1);
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  hits_ = metrics->GetCounter("cache_hits");
  misses_ = metrics->GetCounter("cache_misses");
  evictions_ = metrics->GetCounter("cache_evictions");
  inserts_ = metrics->GetCounter("cache_inserts");
  uncacheable_ = metrics->GetCounter("cache_uncacheable");
  entries_ = metrics->GetGauge("cache_entries");
  bytes_ = metrics->GetGauge("cache_bytes");
}

ContextCache::~ContextCache() = default;

bool ContextCache::MakeKey(const std::string& entity_relation,
                           const Value& entity_key, CacheKey* out) const {
  Symbol relation = pool_->Find(entity_relation);
  if (relation == kNoSymbol) return false;
  out->relation = relation;
  switch (entity_key.type()) {
    case ValueType::kNull:
      out->tag = 0;
      out->packed = 0;
      return true;
    case ValueType::kInt64:
      out->tag = 1;
      out->packed = static_cast<uint64_t>(entity_key.AsInt64());
      return true;
    case ValueType::kDouble:
      out->tag = 2;
      out->packed = PackedDoubleBits(entity_key.AsDouble());
      return true;
    case ValueType::kString: {
      // Entity keys come out of dictionary-encoded columns, so the exact
      // string is interned; a miss here means the key is foreign to this
      // αDB and not worth caching.
      Symbol sym = pool_->Find(entity_key.AsString());
      if (sym == kNoSymbol) return false;
      out->tag = 3;
      out->packed = sym;
      return true;
    }
  }
  return false;
}

Result<std::shared_ptr<const EntityContextProfile>> ContextCache::Profile(
    const std::string& entity_relation, const Value& entity_key,
    const size_t* known_row, bool* from_cache) const {
  if (from_cache != nullptr) *from_cache = false;
  CacheKey key;
  const bool cacheable =
      max_bytes_ > 0 && MakeKey(entity_relation, entity_key, &key);
  if (cacheable) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_->Add();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (from_cache != nullptr) *from_cache = true;
      return it->second->profile;
    }
    misses_->Add();
  } else {
    uncacheable_->Add();
  }

  // Build outside any lock (array reads against the immutable αDB).
  SQUID_ASSIGN_OR_RETURN(
      EntityContextProfile built,
      BuildEntityContextProfile(*adb_, entity_relation, entity_key, known_row));
  auto profile = std::make_shared<const EntityContextProfile>(std::move(built));
  if (!cacheable) return profile;

  Entry entry;
  entry.key = key;
  entry.profile = profile;
  entry.bytes = profile->ApproxBytes() + kEntryOverheadBytes;

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // A concurrent builder won the race; its profile is bit-identical
    // (profiles are a pure function of the αDB), so reuse it.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->profile;
  }
  shard.lru.push_front(std::move(entry));
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += shard.lru.front().bytes;
  inserts_->Add();
  entries_->Add(1);
  bytes_->Add(static_cast<int64_t>(shard.lru.front().bytes));
  // Evict least-recently-used entries down to the shard budget, always
  // keeping the entry just inserted (a single oversized profile would
  // otherwise thrash on every touch).
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    evictions_->Add();
    entries_->Add(-1);
    bytes_->Add(-static_cast<int64_t>(victim.bytes));
    shard.lru.pop_back();
  }
  return profile;
}

bool ContextCache::Contains(const std::string& entity_relation,
                            const Value& entity_key) const {
  CacheKey key;
  if (max_bytes_ == 0 || !MakeKey(entity_relation, entity_key, &key)) return false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.map.find(key) != shard.map.end();
}

void ContextCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries_->Add(-static_cast<int64_t>(shard.lru.size()));
    bytes_->Add(-static_cast<int64_t>(shard.bytes));
    shard.lru.clear();
    shard.map.clear();
    shard.bytes = 0;
  }
}

ServeStats ContextCache::stats() const {
  ServeStats out;
  out.capacity_bytes = max_bytes_;
  out.hits = hits_->Value();
  out.misses = misses_->Value();
  out.evictions = evictions_->Value();
  out.inserts = inserts_->Value();
  out.uncacheable = uncacheable_->Value();
  out.entries = static_cast<size_t>(entries_->Value());
  out.bytes = static_cast<size_t>(bytes_->Value());
  return out;
}

size_t ContextCache::ApproxBytes() const {
  size_t bytes = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes += shard.bytes;
  }
  return bytes;
}

size_t ContextCache::num_entries() const {
  size_t n = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.lru.size();
  }
  return n;
}

}  // namespace squid
