#ifndef SQUID_COMMON_MEM_ARENA_H_
#define SQUID_COMMON_MEM_ARENA_H_

/// \file mem_arena.h
/// \brief Memory-placement layer for the engine's probe-heavy structures:
/// an aligned bump arena with optional hugepage backing, a std-allocator
/// adapter so flat vectors (the inverted index's CSR arrays, the string
/// pool's storage) land in arena blocks, and the process-wide MemConfig
/// that tunes hugepage use and the software-prefetch pipelines. Arenas back
/// only structures built once per αDB; the executor's per-query join and
/// group-by tables use plain vectors, since a fresh 2 MiB block per query
/// costs more than it saves at benched scales.
///
/// Why: at out-of-cache scales the online phase is dominated by
/// pointer-chasing probes (inverted-index lookups, FlatJoinHash probes,
/// group-by hashing). DRAM latency, TLB reach, and allocation placement
/// decide throughput there. Backing the probed arrays with 2 MiB blocks
/// that request transparent hugepages cuts dTLB misses; the bump layout
/// keeps each structure's arrays adjacent instead of scattered across the
/// heap; and the arena's byte counters give exact footprint accounting
/// (AdbReport, serve stats, snapshot info).
///
/// Hugepage semantics: a MemArena never hard-fails for lack of hugepages.
/// kExplicit tries MAP_HUGETLB and falls back to a transparent-hugepage
/// request; kTransparent mmaps normally and issues MADV_HUGEPAGE (advisory;
/// the kernel may or may not back with 2 MiB pages); kOff uses plain 4 KiB
/// mappings. On platforms without mmap everything degrades to aligned
/// operator new. Allocation failure of a *block* is still fatal in the
/// ordinary out-of-memory sense — only the hugepage request degrades.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(_MSC_VER) && !defined(__clang__)
#include <intrin.h>
#endif

namespace squid {

/// Hugepage policy for arena blocks.
enum class HugepageMode : uint8_t {
  kOff = 0,          ///< plain 4 KiB pages
  kTransparent = 1,  ///< mmap + MADV_HUGEPAGE (kernel decides)
  kExplicit = 2,     ///< MAP_HUGETLB first, then transparent, then plain
};

/// \brief Process-wide memory-system tuning knobs. Seeded once from the
/// environment (SQUID_HUGEPAGES, SQUID_PREFETCH_DISTANCE,
/// SQUID_PREFETCH_WINDOW); tests and benches may overwrite the fields of
/// GlobalMemConfig() directly. Not synchronized: set it before building the
/// structures / spawning the threads that read it, as with any config.
struct MemConfig {
  /// Hugepage policy new arenas are created with (an arena snapshots the
  /// mode at construction). SQUID_HUGEPAGES: 0/off, 1/thp, 2/explicit.
  HugepageMode hugepages = HugepageMode::kTransparent;

  /// Lookahead (in probes) for single-prefetch loops — how far ahead of the
  /// resolve stage the address-computation stage runs. SQUID_PREFETCH_DISTANCE.
  size_t prefetch_distance = 8;

  /// In-flight probes of the pipelined batch loops (the ring that carries a
  /// probe from its hash+prefetch stage to its resolve stage). <= 1 disables
  /// the pipeline (plain per-item probes). SQUID_PREFETCH_WINDOW.
  size_t prefetch_window = 16;
};

/// The mutable process-wide config (env-seeded on first use).
MemConfig& GlobalMemConfig();

/// Re-reads the SQUID_* environment variables into GlobalMemConfig()
/// (test/bench helper; GlobalMemConfig() already does this once at startup).
void ReloadMemConfigFromEnv();

/// \brief Aligned bump arena over large mapped blocks. Not thread-safe
/// (callers shard or lock, as StringPool does); allocations are never
/// individually freed — blocks are released when the arena is destroyed,
/// and published pointers stay valid and fixed for the arena's lifetime.
class MemArena {
 public:
  /// Default block: one 2 MiB hugepage.
  static constexpr size_t kDefaultBlockBytes = size_t{2} << 20;

  /// Creates an empty arena (no memory is reserved until first Allocate).
  /// The hugepage mode is snapshotted from GlobalMemConfig().
  explicit MemArena(size_t block_bytes = kDefaultBlockBytes);

  /// As above with an explicit hugepage policy (tests force fallback paths).
  MemArena(size_t block_bytes, HugepageMode mode);

  ~MemArena();

  MemArena(const MemArena&) = delete;
  MemArena& operator=(const MemArena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Requests larger than the block size get a dedicated block. Zero-byte
  /// requests return a valid, unique-enough pointer. Never returns null.
  void* Allocate(size_t bytes, size_t align);

  /// Footprint counters (exact, not sampled).
  struct Stats {
    size_t used_bytes = 0;       ///< bytes handed out (incl. alignment pad)
    size_t reserved_bytes = 0;   ///< bytes mapped/allocated in blocks
    size_t block_count = 0;      ///< blocks owned
    size_t hugetlb_bytes = 0;    ///< bytes in explicit MAP_HUGETLB blocks
    size_t thp_bytes = 0;        ///< bytes with a MADV_HUGEPAGE request
  };
  const Stats& stats() const { return stats_; }

  HugepageMode mode() const { return mode_; }

 private:
  struct Block {
    void* ptr = nullptr;
    size_t size = 0;
    bool mapped = false;   ///< mmap'd (vs operator new)
    bool hugetlb = false;  ///< MAP_HUGETLB succeeded
  };

  /// Maps (or heap-allocates) a block of at least `bytes`, applying the
  /// arena's hugepage mode with graceful fallback.
  Block MapBlock(size_t bytes);

  size_t block_bytes_;
  HugepageMode mode_;
  std::vector<Block> blocks_;
  char* bump_ = nullptr;  ///< next free byte of the current block
  char* end_ = nullptr;   ///< one past the current block
  Stats stats_;
};

/// \brief std::allocator adapter over a shared MemArena. Deallocation is a
/// no-op (bump arena), so container reallocation leaks the old buffer into
/// the arena — acceptable for the build-once/probe-forever structures this
/// backs (tables are sized with assign/resize, not grown element-wise).
/// Copies share the arena; moves propagate it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  /// Creates a fresh (empty) arena of its own; cheap until first use.
  ArenaAllocator() : arena_(std::make_shared<MemArena>()) {}

  explicit ArenaAllocator(std::shared_ptr<MemArena> arena)
      : arena_(std::move(arena)) {}

  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T*, size_t) {}  // bump arena: freed with the arena

  const std::shared_ptr<MemArena>& arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_.get() == o.arena().get();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& o) const {
    return !(*this == o);
  }

 private:
  std::shared_ptr<MemArena> arena_;
};

/// Flat vector whose storage lives in a MemArena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Portable read-prefetch hint (no-op where unsupported).
inline void PrefetchRead(const void* p) {
#if defined(_MSC_VER) && !defined(__clang__)
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#else
  __builtin_prefetch(p, 0, 3);
#endif
}

}  // namespace squid

#endif  // SQUID_COMMON_MEM_ARENA_H_
