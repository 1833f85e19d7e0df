#include "storage/string_pool.h"

#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "common/logging.h"

namespace squid {

namespace {

bool HasUpper(std::string_view s) {
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') return true;
  }
  return false;
}

}  // namespace

void* ChunkArena::Allocate(size_t bytes, size_t align) {
  SQUID_CHECK(align != 0 && (align & (align - 1)) == 0)
      << "arena alignment must be a power of two";
  if (bytes == 0) bytes = 1;  // keep returned pointers distinct

  if (bytes + align > kChunkBytes) {
    // Oversize: a chunk of its own, so the current chunk's free space still
    // serves the small requests that follow.
    size_t space = bytes + align;
    chunks_.push_back(std::unique_ptr<char[]>(new char[space]));
    void* p = chunks_.back().get();
    std::align(align, bytes, p, space);
    used_bytes_ += bytes;
    return p;
  }

  void* p = bump_;
  size_t space = space_;
  if (std::align(align, bytes, p, space) == nullptr) {
    chunks_.push_back(std::unique_ptr<char[]>(new char[kChunkBytes]));
    bump_ = p = chunks_.back().get();
    space_ = space = kChunkBytes;
    std::align(align, bytes, p, space);  // fits: bytes + align <= chunk
  }
  used_bytes_ += (space_ - space) + bytes;  // alignment padding + request
  bump_ = static_cast<char*>(p) + bytes;
  space_ = space - bytes;
  return p;
}

std::string_view StringPool::Store(Shard* shard, std::string_view s) {
  // The arena handles any size (oversize strings get a chunk of their own)
  // and never moves published bytes, so the returned view is stable for the
  // pool's lifetime.
  char* dst = static_cast<char*>(shard->arena.Allocate(s.size(), 1));
  if (!s.empty()) std::memcpy(dst, s.data(), s.size());  // s.data() may be null
  return std::string_view(dst, s.size());
}

Symbol StringPool::PushEntry(Shard* shard, size_t shard_index,
                             std::string_view view, Symbol folded_or_self) {
  uint32_t local = shard->count.load(std::memory_order_relaxed);
  // The last slot of each shard is reserved: the top shard's final id would
  // collide with the kNoSymbol sentinel (0xFFFFFFFF).
  SQUID_CHECK(local + 1 < kMaxPerShard) << "string pool shard overflow";
  size_t chunk, offset;
  Locate(local, &chunk, &offset);
  Entry* entries = shard->chunks[chunk].load(std::memory_order_relaxed);
  if (entries == nullptr) {
    static_assert(std::is_trivially_destructible<Entry>::value,
                  "entry chunks live in the shard arena and are never "
                  "individually destroyed");
    const size_t n = kChunk0 << chunk;
    void* mem = shard->arena.Allocate(n * sizeof(Entry), alignof(Entry));
    entries = static_cast<Entry*>(mem);
    for (size_t i = 0; i < n; ++i) new (entries + i) Entry();
    shard->chunks[chunk].store(entries, std::memory_order_release);
  }
  Symbol id = (local << kShardBits) | static_cast<Symbol>(shard_index);
  entries[offset].view = view;
  entries[offset].folded = folded_or_self == kNoSymbol ? id : folded_or_self;
  // Publish after the entry is fully written; same-thread readers see it by
  // program order, other threads learn the symbol through a synchronizing
  // operation (this shard's mutex or a thread join).
  shard->count.store(local + 1, std::memory_order_release);
  return id;
}

Symbol StringPool::InternLocked(Shard* shard, size_t shard_index,
                                std::string_view s) {
  auto it = shard->exact.find(s);
  if (it != shard->exact.end()) return it->second;

  if (HasUpper(s)) {
    // Intern the folded form first (it hashes to this same shard: the fold
    // hash is casing-invariant), then record the mixed-case spelling.
    shard->fold_buf.assign(s.data(), s.size());
    for (char& c : shard->fold_buf) c = FoldChar(c);
    Symbol folded = InternLocked(shard, shard_index, shard->fold_buf);
    std::string_view view = Store(shard, s);
    Symbol id = PushEntry(shard, shard_index, view, folded);
    shard->exact.emplace(view, id);
    return id;
  }

  // Already folded: the string is its own case-folded form.
  std::string_view view = Store(shard, s);
  Symbol id = PushEntry(shard, shard_index, view, kNoSymbol);
  shard->exact.emplace(view, id);
  shard->folded.emplace(view, id);
  return id;
}

Symbol StringPool::Intern(std::string_view s) {
  size_t shard_index = FoldHashOf(s) & (kNumShards - 1);
  Shard& shard = shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  return InternLocked(&shard, shard_index, s);
}

Symbol StringPool::Find(std::string_view s) const {
  const Shard& shard = shards_[FoldHashOf(s) & (kNumShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.exact.find(s);
  return it == shard.exact.end() ? kNoSymbol : it->second;
}

Symbol StringPool::FindFolded(std::string_view s) const {
  const Shard& shard = shards_[FoldHashOf(s) & (kNumShards - 1)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.folded.find(s);
  return it == shard.folded.end() ? kNoSymbol : it->second;
}

size_t StringPool::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.count.load(std::memory_order_acquire);
  }
  return n;
}

size_t StringPool::IdBound() const {
  uint32_t max_count = 0;
  for (const Shard& shard : shards_) {
    uint32_t c = shard.count.load(std::memory_order_acquire);
    if (c > max_count) max_count = c;
  }
  // Every id is (local << kShardBits) | shard with local < max_count, so
  // (max_count << kShardBits) bounds them all strictly.
  return static_cast<size_t>(max_count) << kShardBits;
}

void StringPool::Reserve(size_t expected_strings) {
  // Interning a mixed-case string also interns its folded twin; ~2x covers
  // the worst case. Divide across shards (fold hashes spread uniformly).
  size_t per_shard = 2 * expected_strings / kNumShards + 1;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.exact.reserve(per_shard);
    shard.folded.reserve(per_shard);
  }
}

size_t StringPool::ApproxBytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Arena share: string bytes + entry-table chunks, as handed out.
    bytes += shard.arena.used_bytes();
    // Two hash maps of (view, symbol) nodes; bucket arrays ignored.
    bytes += (shard.exact.size() + shard.folded.size()) *
             (sizeof(std::string_view) + sizeof(Symbol) + sizeof(void*));
  }
  return bytes;
}

}  // namespace squid
