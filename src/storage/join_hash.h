#ifndef SQUID_STORAGE_JOIN_HASH_H_
#define SQUID_STORAGE_JOIN_HASH_H_

/// \file join_hash.h
/// \brief Flat hash table from packed cell keys to row spans, plus the
/// packed 64-bit cell-key helpers shared by joins, group-by, PK lookups and
/// the golden-parity reference executor in tests. It depends only on
/// Column, so it lives in storage: the executor builds one per join build
/// side, and a Table holds one over its primary key (Table::BuildPkIndex)
/// that serves both the αDB's point lookups and the executor's PK joins.
///
/// Layout mirrors the inverted-index recipe: keys live in an
/// open-addressing (linear probing) power-of-two table of 16-byte
/// `{key, slot}` entries at <= 50% load, and each key's matching row ids are
/// one contiguous span of a single CSR postings array. A probe is one mix of
/// the packed key and a linear scan of flat entries — no node chasing, no
/// per-probe allocation. `ProbeBatch` runs that probe over a whole chunk of
/// probe keys in one call.

#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"

namespace squid {

/// Packs the cell into the 64-bit join-key space of its own column:
/// dictionary symbol for strings, bit pattern for numerics. Returns false
/// for nulls (which never join).
bool PackCellKey(const Column& col, size_t row, uint64_t* key);

/// Packs a probe cell into the *build* column's key space, preserving
/// Value equality semantics (1 == 1.0 across numeric types; strings match
/// exactly). Returns false when the cell is null or cannot equal any build
/// key (type mismatch, string absent from the build dictionary, double
/// outside int64 range or with a fractional part when the build side is
/// integer).
bool PackProbeKey(const Column& build, const Column& probe, size_t row,
                  uint64_t* key);

/// Packs a Value into `build`'s key space with the same rules as
/// PackProbeKey (1 == 1.0 across numeric types, strings through the build
/// column's dictionary). Returns false for NULL and for values that cannot
/// equal any build key.
bool PackValueKey(const Column& build, const Value& v, uint64_t* key);

/// Cell equality without materializing Values; nulls equal nothing.
bool JoinCellsEqual(const Column& a, size_t ra, const Column& b, size_t rb);

/// 64-bit mixer (splitmix64 finalizer) used for the probe table's bucket
/// choice; the packed keys are often small dense ints, so raw masking would
/// cluster.
inline uint64_t MixJoinKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// \brief Open-addressing build-side join table: packed cell key -> span of
/// build row ids, stored as one flat CSR array.
class FlatJoinHash {
 public:
  /// Non-owning view of one key's build rows (contiguous, in build order).
  struct RowSpan {
    const uint32_t* data = nullptr;
    uint32_t size = 0;

    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + size; }
    bool empty() const { return size == 0; }
  };

  /// Builds over `rows` of `column`; null cells are skipped. Within each
  /// key, row ids keep their order in `rows` (the executor's output order
  /// contract depends on this). While no key repeats — a primary key, or
  /// one value's run of a derived relation — the row array is `rows` itself
  /// and each bucket points at its row, so the build is one insert pass;
  /// a repeated key regroups the rows into per-key spans.
  static FlatJoinHash Build(const Column& column,
                            const std::vector<uint32_t>& rows);

  /// Rows whose cell packs to `key` (empty span on miss).
  RowSpan Probe(uint64_t key) const;

  /// Rows whose cell equals `v` under Value equality, for a hash built
  /// over `build` (PackValueKey; empty span for NULL or no match).
  RowSpan Lookup(const Column& build, const Value& v) const {
    uint64_t key = 0;
    return PackValueKey(build, v, &key) ? Probe(key) : RowSpan{};
  }

  /// Batched probe over a packed key chunk: out[i] = Probe(keys[i]) where
  /// valid[i] is non-zero, else the empty span.
  void ProbeBatch(const uint64_t* keys, const uint8_t* valid, size_t n,
                  RowSpan* out) const;

  size_t num_keys() const { return num_keys_; }
  size_t num_rows() const { return rows_.size(); }

  /// Exact footprint of the bucket table + row array.
  size_t ApproxBytes() const {
    return table_.capacity() * sizeof(Entry) +
           rows_.capacity() * sizeof(uint32_t);
  }

 private:
  /// One bucket of the flat probe table (16 bytes, 16-aligned: a bucket
  /// never straddles a cache line, so one probe touches exactly one line).
  /// The key's CSR span is embedded directly — `rows_[begin, begin +
  /// count)` — so a hit costs one bucket read plus the span itself, with no
  /// offset-array indirection. `count == 0` marks an empty bucket (present
  /// keys always have >= 1 row), so key 0 needs no reserved value.
  struct alignas(16) Entry {
    uint64_t key = 0;
    uint32_t begin = 0;
    uint32_t count = 0;
  };
  static_assert(sizeof(Entry) == 16, "bucket layout audited at 16 bytes");

  /// The bucket holding `key`, or the empty bucket where it would go.
  Entry& Slot(uint64_t key);

  /// One bucket probe touches one 16-byte entry — one cache line, by the
  /// alignment above — and a hit's row span is one contiguous read.
  std::vector<Entry> table_;  // power-of-two, <= 50% load
  uint64_t mask_ = 0;
  std::vector<uint32_t> rows_;
  size_t num_keys_ = 0;
};

}  // namespace squid

#endif  // SQUID_STORAGE_JOIN_HASH_H_
