#ifndef SQUID_STORAGE_STRING_POOL_H_
#define SQUID_STORAGE_STRING_POOL_H_

/// \file string_pool.h
/// \brief Sharded string interner mapping strings <-> `Symbol`
/// (uint32) ids. Every interned string also records the id of its ASCII
/// case-folded form, so case-insensitive comparison is integer equality and
/// the inverted column index can key postings by folded symbol.
///
/// One pool is owned per Database (tables created through the catalog share
/// it), which makes symbol ids directly comparable across that database's
/// columns — the executor's string join keys and the αDB's value-frequency
/// maps rely on this.
///
/// Concurrency: the pool is internally sharded 16 ways by the case-folded
/// hash of the key (all casings of a string share one fold hash, so a string
/// and its folded twin always land in the same shard). Each shard owns its
/// own mutex, chunk arena, probe maps, and entry table, so Intern / Find /
/// FindFolded are safe to call from any number of threads concurrently —
/// contention is limited to threads touching the same shard. View() and
/// FoldedOf() are lock-free: entry storage is chunked (chunks are never
/// moved once published), and any valid symbol a thread can legitimately
/// hold was published to it through a synchronizing operation (its own
/// Intern call, a shard mutex, or a thread join).
///
/// Determinism contract (relied on by the parallel αDB build and the
/// parallel dataset generators): a symbol is (shard, per-shard insertion
/// index). The shard depends only on the string, so symbol assignment is a
/// pure function of the per-shard first-insertion order. Callers that need
/// bit-identical symbols across thread counts intern new strings in a
/// canonical serial order (or not at all) before fanning out work; parallel
/// phases then only re-intern existing strings, which is order-independent.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#if defined(_MSC_VER) && !defined(__clang__)
#include <intrin.h>
#endif

namespace squid {

/// Id of an interned string. Symbols are NOT dense: the low bits carry the
/// shard, the high bits the per-shard insertion index. Use
/// StringPool::IdBound() to size symbol-indexed arrays.
using Symbol = uint32_t;

/// Sentinel returned by the Find* lookups when the string is not interned.
inline constexpr Symbol kNoSymbol = 0xFFFFFFFFu;

/// \brief Bump allocator over heap chunks: the stable storage behind
/// StringPool's views and entry tables. Not thread-safe (each pool shard
/// owns one and uses it under the shard mutex). Nothing is freed on its
/// own: chunks are released with the arena, so a returned pointer stays
/// valid and never moves for the arena's lifetime.
class ChunkArena {
 public:
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  /// Returns `bytes` of storage aligned to `align` (a power of two). A
  /// request that cannot fit a chunk gets a chunk of its own, and the
  /// current chunk keeps its free space. Zero-byte requests return a
  /// distinct valid pointer. Never returns null.
  void* Allocate(size_t bytes, size_t align);

  /// Bytes handed out, alignment padding included.
  size_t used_bytes() const { return used_bytes_; }
  size_t num_chunks() const { return chunks_.size(); }

 private:
  std::vector<std::unique_ptr<char[]>> chunks_;
  void* bump_ = nullptr;  ///< next free byte of the current chunk
  size_t space_ = 0;      ///< free bytes after bump_
  size_t used_bytes_ = 0;
};

/// \brief Sharded string interner with stable storage and case-folded twin
/// ids. All member functions are safe for concurrent use.
///
/// Views returned by View() point into heap chunks and stay valid for the
/// lifetime of the pool (chunks are never freed or reallocated).
class StringPool {
 public:
  StringPool() = default;

  // Interned views point into the chunks; copying/moving the maps would be
  // cheap but error-prone, so the pool is pinned and shared via shared_ptr.
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Interns `s` (idempotent) and returns its symbol. Also interns the ASCII
  /// case-folded form of `s` so FoldedOf() is always answerable. Takes the
  /// key's shard mutex; re-interning an existing string is a single locked
  /// hash lookup.
  Symbol Intern(std::string_view s);

  /// Symbol of exactly `s`, or kNoSymbol. Never inserts, never allocates.
  Symbol Find(std::string_view s) const;

  /// Symbol of the case-folded form of `s` (ASCII case-insensitive match),
  /// or kNoSymbol. Folds on the fly while hashing — never inserts, never
  /// allocates. This is the inverted-index lookup fast path.
  Symbol FindFolded(std::string_view s) const;

  /// The interned string. `id` must be a valid symbol of this pool.
  /// Lock-free.
  std::string_view View(Symbol id) const { return EntryOf(id).view; }

  /// Symbol of the case-folded form of `id` (== `id` when already folded).
  /// Lock-free.
  Symbol FoldedOf(Symbol id) const { return EntryOf(id).folded; }

  /// Number of interned strings (folded forms included).
  size_t size() const;

  /// Smallest value strictly greater than every valid symbol of this pool.
  /// Because the id space is sharded it is larger than size(); use it (not
  /// size()) to size dense symbol-indexed arrays.
  size_t IdBound() const;

  /// Pre-sizes the per-shard hash maps for ~`expected_strings` distinct
  /// interned strings (the dataset generators call this before their batch
  /// pre-intern pass to avoid rehashing).
  void Reserve(size_t expected_strings);

  /// Number of entries published in shard `shard` (< kNumShards). The
  /// snapshot writer walks shards entry-by-entry, and the loader replays
  /// them in the same order to reproduce identical symbols.
  uint32_t ShardEntryCount(size_t shard) const {
    return shards_[shard].count.load(std::memory_order_acquire);
  }

  /// True when `id` names a published entry of this pool. Symbols are not
  /// dense, so a bound check against IdBound() is insufficient; this checks
  /// the per-shard insertion index. Snapshot loaders use it to vet symbols
  /// read from untrusted files before calling View()/FoldedOf().
  bool IsValidSymbol(Symbol id) const {
    const Shard& shard = shards_[id & (kNumShards - 1)];
    return (id >> kShardBits) < shard.count.load(std::memory_order_acquire);
  }

  /// Approximate heap footprint (chunk arenas + hash maps). The arena
  /// share, string bytes plus entry tables, counts exactly the bytes the
  /// arenas handed out.
  size_t ApproxBytes() const;

  /// ASCII-only lower-casing of one byte; bytes outside 'A'..'Z' pass
  /// through unchanged (locale-independent, matching ToLower()).
  static constexpr char FoldChar(char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c | 0x20) : c;
  }

  /// SWAR lower-casing of 8 bytes at once: ORs 0x20 into every byte in
  /// ['A','Z'], leaves all other bytes (including non-ASCII) untouched.
  static uint64_t FoldWord(uint64_t x) {
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    constexpr uint64_t kHigh = 0x8080808080808080ULL;
    uint64_t heptets = x & ~kHigh;
    // Bit 7 of each byte: set iff the (7-bit) byte is >= 'A' / > 'Z'.
    uint64_t ge_a = heptets + (0x80 - 'A') * kOnes;
    uint64_t gt_z = heptets + (0x80 - 'Z' - 1) * kOnes;
    uint64_t is_upper = (ge_a & ~gt_z & ~x) & kHigh;
    return x | (is_upper >> 2);  // 0x80 >> 2 == 0x20
  }

  /// Hash of the ASCII-folded bytes of `s`. Equal for any two
  /// case-insensitively equal strings; processes 8 bytes per step. Strings
  /// of >= 8 bytes finish with a (possibly overlapping) last-word read —
  /// positions are length-determined, so equal-length inputs stay
  /// consistent; shorter tails assemble a word by shifts, avoiding a
  /// variable-length memcpy call.
  static uint64_t FoldHashOf(std::string_view s) {
    constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
    uint64_t h = 1469598103934665603ULL ^ (s.size() * kMul);
    const char* p = s.data();
    size_t n = s.size();
    if (n >= 8) {
      while (n > 8) {
        h = (h ^ FoldWord(LoadWord(p))) * kMul;
        p += 8;
        n -= 8;
      }
      h = (h ^ FoldWord(LoadWord(p + n - 8))) * kMul;
    } else if (n > 0) {
      h = (h ^ FoldWord(LoadTail(p, n))) * kMul;
    }
    return h ^ (h >> 32);
  }

  /// ASCII case-insensitive equality (8 bytes per step).
  static bool FoldEqual(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    const char* pa = a.data();
    const char* pb = b.data();
    size_t n = a.size();
    if (n >= 8) {
      while (n > 8) {
        if (FoldWord(LoadWord(pa)) != FoldWord(LoadWord(pb))) return false;
        pa += 8;
        pb += 8;
        n -= 8;
      }
      return FoldWord(LoadWord(pa + n - 8)) == FoldWord(LoadWord(pb + n - 8));
    }
    if (n == 0) return true;
    return FoldWord(LoadTail(pa, n)) == FoldWord(LoadTail(pb, n));
  }

  static constexpr size_t kShardBits = 4;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;

 private:
  struct Entry {
    std::string_view view;
    Symbol folded = kNoSymbol;
  };

  // Per-shard entry storage is chunked so View() can run lock-free while
  // another thread interns into the same shard: chunk k holds
  // kChunk0 << k entries, published chunks are never moved or freed, and
  // the chunk directory is a fixed array of atomic pointers.
  static constexpr size_t kChunk0 = 1024;      // entries in chunk 0
  static constexpr size_t kMaxChunks = 19;     // >= 2^28 entries per shard
  static constexpr uint32_t kMaxPerShard = 1u << (32 - kShardBits);

  static uint64_t LoadWord(const char* p) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  }

  /// Assembles 1..7 bytes into a word (little-endian byte order).
  static uint64_t LoadTail(const char* p, size_t n) {
    uint64_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      w |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return w;
  }

  struct FoldHash {
    size_t operator()(std::string_view s) const {
      return static_cast<size_t>(FoldHashOf(s));
    }
  };

  struct FoldEq {
    bool operator()(std::string_view a, std::string_view b) const {
      return FoldEqual(a, b);
    }
  };

  struct Shard {
    mutable std::mutex mu;

    // One chunk arena per shard holds both the interned string bytes and
    // the entry-table chunks (stable storage: nothing is moved or freed
    // while the pool lives).
    ChunkArena arena;

    // Chunked entry table (see kChunk0/kMaxChunks above). `count` is the
    // number of published entries; readers only dereference indexes below a
    // count they learned through a synchronizing operation. Chunk storage
    // lives in `arena`; entries are trivially destructible.
    std::atomic<Entry*> chunks[kMaxChunks] = {};
    std::atomic<uint32_t> count{0};

    // Exact-match map over every interned string of this shard.
    std::unordered_map<std::string_view, Symbol> exact;
    // Case-insensitive map; keys are the (already lower-case) folded forms,
    // values their symbols. Probed with raw mixed-case input.
    std::unordered_map<std::string_view, Symbol, FoldHash, FoldEq> folded;
    // Scratch for folding during Intern (guarded by mu).
    std::string fold_buf;
  };

  /// floor(log2(x)) for x >= 1.
  static size_t FloorLog2(uint64_t x) {
#if defined(_MSC_VER) && !defined(__clang__)
    unsigned long index;
    _BitScanReverse64(&index, x);
    return static_cast<size_t>(index);
#else
    return 63 - static_cast<size_t>(__builtin_clzll(x));
#endif
  }

  /// Chunk index and in-chunk offset for per-shard entry index `local`:
  /// chunk k spans [kChunk0 * (2^k - 1), kChunk0 * (2^(k+1) - 1)).
  static void Locate(uint32_t local, size_t* chunk, size_t* offset) {
    size_t k = FloorLog2(local / kChunk0 + 1);
    *chunk = k;
    *offset = local - kChunk0 * ((size_t{1} << k) - 1);
  }

  const Entry& EntryOf(Symbol id) const {
    const Shard& shard = shards_[id & (kNumShards - 1)];
    size_t chunk, offset;
    Locate(id >> kShardBits, &chunk, &offset);
    return shard.chunks[chunk].load(std::memory_order_acquire)[offset];
  }

  /// Appends an entry to `shard` (mu held) and returns its symbol.
  Symbol PushEntry(Shard* shard, size_t shard_index, std::string_view view,
                   Symbol folded_or_self);

  /// Copies `s` into the shard arena (mu held) and returns the stable view.
  static std::string_view Store(Shard* shard, std::string_view s);

  /// Interns `s` into `shard` (mu held). `s` must hash to `shard_index`.
  Symbol InternLocked(Shard* shard, size_t shard_index, std::string_view s);

  Shard shards_[kNumShards];
};

}  // namespace squid

#endif  // SQUID_STORAGE_STRING_POOL_H_
