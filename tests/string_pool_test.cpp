#include "storage/string_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "storage/inverted_index.h"
#include "tests/test_util.h"

// ---------------------------------------------------------------------------
// Global allocation counter (this test binary only): lets the tests assert
// that the inverted-index / pool lookup hit paths perform zero heap
// allocations, which is part of the CSR refactor's contract. Atomic because
// the concurrency stress tests allocate from several threads.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Not inlined: GCC's -Wmismatched-new-delete misreads an inlined free() of
// a pointer from the replaced operator new as a mismatch.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace squid {
namespace {

// ---------- ChunkArena: the storage behind the pool's views ----------

TEST(ChunkArenaTest, AlignmentGuarantees) {
  ChunkArena arena;
  // Interleave odd sizes with every power-of-two alignment so the bump
  // pointer is rarely pre-aligned when the next request arrives.
  for (size_t align : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    for (size_t bytes : {1u, 3u, 7u, 65u, 1000u}) {
      void* p = arena.Allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "bytes=" << bytes << " align=" << align;
      std::memset(p, 0xAB, bytes);  // must be writable storage
    }
  }
  EXPECT_GT(arena.used_bytes(), 0u);
}

TEST(ChunkArenaTest, ZeroByteAllocationsAreValidAndDistinct) {
  ChunkArena arena;
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

TEST(ChunkArenaTest, OversizeRequestGetsItsOwnChunk) {
  constexpr size_t kChunk = ChunkArena::kChunkBytes;
  ChunkArena arena;
  arena.Allocate(64, 8);
  EXPECT_EQ(arena.num_chunks(), 1u);
  void* big = arena.Allocate(kChunk * 3, 64);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % 64, 0u);
  std::memset(big, 0xCD, kChunk * 3);
  EXPECT_EQ(arena.num_chunks(), 2u);
  // The oversize chunk must not have consumed the small chunk's free space:
  // a follow-up small allocation still fits without a third chunk.
  arena.Allocate(64, 8);
  EXPECT_EQ(arena.num_chunks(), 2u);
  EXPECT_GE(arena.used_bytes(), kChunk * 3 + 128);
}

TEST(ChunkArenaTest, PointersStayValidAcrossChunkGrowth) {
  ChunkArena arena;
  const uint64_t n = 3 * ChunkArena::kChunkBytes / sizeof(uint64_t);
  std::vector<uint64_t*> cells;
  for (uint64_t i = 0; i < n; ++i) {
    auto* cell = static_cast<uint64_t*>(
        arena.Allocate(sizeof(uint64_t), alignof(uint64_t)));
    *cell = i;
    cells.push_back(cell);
  }
  EXPECT_GT(arena.num_chunks(), 1u);  // growth actually happened
  for (uint64_t i = 0; i < cells.size(); ++i) EXPECT_EQ(*cells[i], i);
  EXPECT_EQ(arena.used_bytes(), n * sizeof(uint64_t));  // no padding
}

// ---------- StringPool ----------

TEST(StringPoolTest, InternIsIdempotent) {
  StringPool pool;
  Symbol a = pool.Intern("alpha");
  Symbol b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Intern("beta"), b);
  EXPECT_EQ(pool.View(a), "alpha");
  EXPECT_EQ(pool.View(b), "beta");
}

TEST(StringPoolTest, FoldedIdsAgreeAcrossCasings) {
  StringPool pool;
  Symbol lower = pool.Intern("dan suciu");
  Symbol mixed = pool.Intern("Dan Suciu");
  Symbol upper = pool.Intern("DAN SUCIU");
  // Distinct exact spellings, one shared folded id.
  EXPECT_NE(mixed, upper);
  EXPECT_NE(mixed, lower);
  EXPECT_EQ(pool.FoldedOf(mixed), lower);
  EXPECT_EQ(pool.FoldedOf(upper), lower);
  EXPECT_EQ(pool.FoldedOf(lower), lower);  // folded form is its own fold
  // Case-insensitive lookup resolves any casing, including unseen ones.
  EXPECT_EQ(pool.FindFolded("dAn SuCiU"), lower);
  EXPECT_EQ(pool.FindFolded("DAN SUCIU"), lower);
  EXPECT_EQ(pool.FindFolded("dan suciu"), lower);
  EXPECT_EQ(pool.FindFolded("dan suciu "), kNoSymbol);
}

TEST(StringPoolTest, FindNeverInserts) {
  StringPool pool;
  EXPECT_EQ(pool.Find("ghost"), kNoSymbol);
  EXPECT_EQ(pool.FindFolded("ghost"), kNoSymbol);
  EXPECT_EQ(pool.size(), 0u);
  Symbol g = pool.Intern("ghost");
  EXPECT_EQ(pool.Find("ghost"), g);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPoolTest, EmptyStringIsAnOrdinaryKey) {
  StringPool pool;
  Symbol empty = pool.Intern("");
  EXPECT_EQ(pool.View(empty), "");
  EXPECT_EQ(pool.FoldedOf(empty), empty);
  EXPECT_EQ(pool.Find(""), empty);
  EXPECT_EQ(pool.FindFolded(""), empty);
  EXPECT_EQ(pool.Intern(""), empty);
}

TEST(StringPoolTest, NonAsciiBytesPassThroughFolding) {
  StringPool pool;
  // UTF-8 "Jalapeño": folding only touches A-Z, so the ñ bytes survive and
  // the two casings share one folded id.
  Symbol a = pool.Intern("Jalape\xc3\xb1o");
  Symbol b = pool.Intern("JALAPE\xc3\xb1O");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.FoldedOf(a), pool.FoldedOf(b));
  EXPECT_EQ(pool.View(pool.FoldedOf(a)), "jalape\xc3\xb1o");
  // A string differing only in the non-ASCII byte folds elsewhere.
  EXPECT_EQ(pool.FindFolded("jalapeno"), kNoSymbol);
  EXPECT_EQ(pool.FindFolded("jalape\xc3\xb1O"), pool.FoldedOf(a));
}

TEST(StringPoolTest, ViewsStayStableAsThePoolGrows) {
  StringPool pool;
  // Force many arena chunks (64 KiB each) and record early views.
  std::vector<std::pair<Symbol, std::string>> expected;
  for (int i = 0; i < 20000; ++i) {
    std::string s = "entity-" + std::to_string(i) + "-with-some-padding";
    Symbol id = pool.Intern(s);
    if (i % 997 == 0) expected.emplace_back(id, s);
  }
  // An oversize string (> one chunk) takes the dedicated-chunk path.
  std::string big(100000, 'x');
  Symbol big_id = pool.Intern(big);
  for (int i = 20000; i < 24000; ++i) {
    pool.Intern("more-growth-" + std::to_string(i));
  }
  for (const auto& [id, s] : expected) {
    EXPECT_EQ(pool.View(id), s);
  }
  EXPECT_EQ(pool.View(big_id), big);
  EXPECT_GT(pool.ApproxBytes(), size_t{100000});
}

TEST(StringPoolTest, FoldHashMatchesAcrossCasingsAndLengths) {
  // The SWAR fold hash must agree for case-insensitively equal strings of
  // every length mod 8 (covering the overlapping-last-word and short-tail
  // paths).
  const std::string base = "AbCdEfGhIjKlMnOpQrStU";
  for (size_t len = 0; len <= base.size(); ++len) {
    std::string upper = base.substr(0, len);
    std::string lower = upper;
    for (char& c : lower) c = StringPool::FoldChar(c);
    EXPECT_EQ(StringPool::FoldHashOf(upper), StringPool::FoldHashOf(lower))
        << "len " << len;
    EXPECT_TRUE(StringPool::FoldEqual(upper, lower)) << "len " << len;
    if (len > 0) {
      std::string other = lower;
      other[len / 2] = '#';
      EXPECT_FALSE(StringPool::FoldEqual(upper, other)) << "len " << len;
    }
  }
}

TEST(StringPoolTest, LookupHitPathDoesNotAllocate) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  const StringPool& pool = *db->pool();

  // Mixed-case probes of values that are present (the hit path).
  const char* probes[] = {"DAN SUSIC", "dan susic", "Data Management"};
  // Warm up so lazy hash-map rehashing cannot be blamed on the probe.
  size_t hits = 0;
  for (const char* probe : probes) hits += index.value().Lookup(probe).size();
  ASSERT_GT(hits, 0u);

  size_t before = g_alloc_count.load();
  size_t total = 0;
  for (int round = 0; round < 100; ++round) {
    for (const char* probe : probes) {
      total += index.value().Lookup(probe).size();
      total += pool.FindFolded(probe) == kNoSymbol ? 0 : 1;
    }
  }
  EXPECT_EQ(g_alloc_count.load(), before) << "Lookup allocated on the hit path";
  EXPECT_EQ(total, 100 * (hits + 3));
}

// ---------------------------------------------------------------------------
// Concurrency: the sharded interner must hand out one symbol per distinct
// string no matter how many threads intern overlapping key sets, including
// case-folded collisions, the empty key, and non-ASCII keys. Run under
// -DSQUID_TSAN=ON in CI to catch data races, not just logic errors.
// ---------------------------------------------------------------------------

/// Deterministic key universe with deliberate overlaps: for each base index
/// three casings of the same word (folding collisions), plus empty and
/// non-ASCII keys sprinkled in.
std::vector<std::string> StressKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(4 * n + 2);
  keys.emplace_back("");
  keys.emplace_back("Jalape\xc3\xb1o");  // non-ASCII bytes survive folding
  for (size_t i = 0; i < n; ++i) {
    std::string base = "entity key " + std::to_string(i);
    keys.push_back(base);
    std::string upper = base;
    for (char& c : upper) c = static_cast<char>(c >= 'a' && c <= 'z' ? c & ~0x20 : c);
    keys.push_back(upper);
    std::string mixed = base;
    mixed[0] = static_cast<char>(mixed[0] & ~0x20);
    keys.push_back(mixed);
    keys.push_back("JALAPE\xc3\xb1O " + std::to_string(i % 7));
  }
  return keys;
}

TEST(StringPoolConcurrencyTest, OverlappingInternsAgreeAcrossThreads) {
  constexpr size_t kThreads = 8;
  const std::vector<std::string> keys = StressKeys(500);

  StringPool pool;
  // Per-thread observation: key index -> symbol. Threads walk the shared
  // key set from different offsets (and some backwards) so first-intern
  // races cover every interleaving class.
  std::vector<std::vector<Symbol>> seen(kThreads,
                                        std::vector<Symbol>(keys.size(), kNoSymbol));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t offset = t * keys.size() / kThreads;
      for (size_t i = 0; i < keys.size(); ++i) {
        size_t k = t % 2 == 0 ? (offset + i) % keys.size()
                              : (offset + keys.size() - i) % keys.size();
        Symbol sym = pool.Intern(keys[k]);
        seen[t][k] = sym;
        // Read-side calls interleaved with other threads' inserts.
        EXPECT_EQ(pool.View(sym), keys[k]);
        EXPECT_NE(pool.Find(keys[k]), kNoSymbol);
        EXPECT_NE(pool.FindFolded(keys[k]), kNoSymbol);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Idempotence and cross-thread agreement: every thread saw the same
  // symbol for the same key, and a fresh intern returns it again.
  for (size_t k = 0; k < keys.size(); ++k) {
    Symbol expected = seen[0][k];
    ASSERT_NE(expected, kNoSymbol);
    for (size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[t][k], expected) << "thread " << t << " key '" << keys[k] << "'";
    }
    EXPECT_EQ(pool.Intern(keys[k]), expected);
    EXPECT_EQ(pool.Find(keys[k]), expected);
    EXPECT_EQ(pool.View(expected), keys[k]);
  }

  // One entry per distinct string: n distinct exact spellings + their
  // folded twins and nothing else; count via a reference serial pool.
  StringPool reference;
  for (const std::string& k : keys) reference.Intern(k);
  EXPECT_EQ(pool.size(), reference.size());

  // Folded twins are shared across casings, concurrently interned or not.
  Symbol lower = pool.Find("entity key 0");
  Symbol upper = pool.Find("ENTITY KEY 0");
  Symbol mixed = pool.Find("Entity key 0");
  ASSERT_NE(lower, kNoSymbol);
  ASSERT_NE(upper, kNoSymbol);
  ASSERT_NE(mixed, kNoSymbol);
  EXPECT_EQ(pool.FoldedOf(upper), lower);
  EXPECT_EQ(pool.FoldedOf(mixed), lower);
  EXPECT_EQ(pool.FoldedOf(lower), lower);
  EXPECT_EQ(pool.FindFolded("eNtItY kEy 0"), lower);
}

TEST(StringPoolConcurrencyTest, ReadersRaceWritersSafely) {
  // Writers intern a growing key range while readers hammer Find /
  // FindFolded / View on already-published keys. Mostly a TSan target; the
  // logic assertions double as sanity checks.
  constexpr size_t kKeys = 4000;
  StringPool pool;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("Shared Key " + std::to_string(i));
  }
  std::atomic<size_t> published{0};
  std::thread writer([&] {
    for (size_t i = 0; i < kKeys; ++i) {
      Symbol sym = pool.Intern(keys[i]);
      EXPECT_EQ(pool.View(sym), keys[i]);
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      size_t hits = 0;
      while (hits < kKeys) {
        size_t limit = published.load(std::memory_order_acquire);
        hits = 0;
        for (size_t i = 0; i < limit; ++i) {
          Symbol sym = pool.Find(keys[i]);
          ASSERT_NE(sym, kNoSymbol) << i;  // published => visible
          ASSERT_EQ(pool.View(sym), keys[i]);
          ASSERT_NE(pool.FindFolded(keys[i]), kNoSymbol);
          ++hits;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(pool.size(), 2 * kKeys);  // each key + its folded twin
}

TEST(StringPoolConcurrencyTest, ConcurrentGrowthKeepsViewsStable) {
  StringPool pool;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::vector<Symbol>> symbols(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &symbols, t] {
      // Heavy overlap across threads: every shard's arena grows while other
      // threads hold views into earlier chunks.
      for (int i = 0; i < kPerThread; ++i) {
        symbols[t].push_back(
            pool.Intern("value-" + std::to_string(i % (kPerThread / 2)) +
                        "-padpadpadpadpadpad"));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(pool.View(symbols[t][i]),
                "value-" + std::to_string(i % (kPerThread / 2)) +
                    "-padpadpadpadpadpad");
    }
  }
  EXPECT_GT(pool.ApproxBytes(), 0u);
}

/// The determinism contract: identical first-intern order => identical
/// symbols, regardless of what other strings other threads interned in
/// other pools. (Symbols are per-shard insertion indexes, so this is the
/// invariant the parallel αDB build and generators rely on.)
TEST(StringPoolConcurrencyTest, CanonicalInternOrderGivesCanonicalSymbols) {
  const std::vector<std::string> keys = StressKeys(200);
  StringPool a;
  StringPool b;
  for (const std::string& k : keys) {
    EXPECT_EQ(a.Intern(k), b.Intern(k)) << k;
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.IdBound(), b.IdBound());
}

}  // namespace
}  // namespace squid
