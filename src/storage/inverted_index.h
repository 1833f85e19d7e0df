#ifndef SQUID_STORAGE_INVERTED_INDEX_H_
#define SQUID_STORAGE_INVERTED_INDEX_H_

/// \file inverted_index.h
/// \brief Global inverted column index over text attributes (§5 "Entity
/// lookup"): maps a (case-normalized) string value to every
/// (relation, attribute, row) position where it occurs. SQuID uses it to
/// match user-provided example strings to candidate entities.
///
/// Layout: one contiguous postings array in CSR form. Keys are case-folded
/// StringPool symbols; a symbol->slot table (sized by StringPool::IdBound(),
/// the sharded pool's id space is not dense) plus a slot offset array
/// locate each key's posting span. Lookup is a single case-folding hash of
/// the probe text, a short linear probe of a flat table and two array reads
/// — no per-lookup allocation, no string materialization. All four arrays
/// are plain vectors.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/string_pool.h"

namespace squid {

class ExtentWriter;
class ExtentReader;

/// One occurrence of a value in the database. Relation and attribute names
/// are symbols in the index's pool (see InvertedColumnIndex::RelationName).
struct Posting {
  Symbol relation = kNoSymbol;
  Symbol attribute = kNoSymbol;
  uint32_t row = 0;

  bool operator==(const Posting& o) const {
    return relation == o.relation && attribute == o.attribute && row == o.row;
  }
};

/// \brief Case-insensitive exact-value inverted index (flat CSR layout).
class InvertedColumnIndex {
 public:
  /// Non-owning view of one key's postings (contiguous in the CSR array).
  class PostingSpan {
   public:
    PostingSpan() = default;
    PostingSpan(const Posting* data, size_t size) : data_(data), size_(size) {}

    const Posting* begin() const { return data_; }
    const Posting* end() const { return data_ + size_; }
    const Posting& operator[](size_t i) const { return data_[i]; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    const Posting* data_ = nullptr;
    size_t size_ = 0;
  };

  /// Indexes every text_search_attribute declared in the schemas of `db`
  /// (falls back to all string attributes of entity tables when a table
  /// declares none). Keys intern into `db`'s StringPool.
  static Result<InvertedColumnIndex> Build(const Database& db);

  /// All positions whose value equals `text` (ASCII case-insensitive).
  /// Zero-allocation: one case-folding hash of `text`, then a linear probe
  /// of a flat open-addressing table of 16-byte entries.
  PostingSpan Lookup(std::string_view text) const;

  /// Folded symbol of `text`, or kNoSymbol when no *indexed* value matches
  /// (unlike StringPool::FindFolded this only sees indexed keys).
  Symbol FoldedSymbolOf(std::string_view text) const;

  /// Resolves a posting's relation / attribute symbol to its name.
  std::string_view RelationName(const Posting& p) const { return pool_->View(p.relation); }
  std::string_view AttributeName(const Posting& p) const { return pool_->View(p.attribute); }

  /// The pool posting symbols index into (valid after a successful Build).
  const StringPool& pool() const { return *pool_; }

  /// Shared handle to the same pool, for long-lived sessions (serve mode's
  /// context cache keys on these symbols and must keep the pool alive even
  /// if the owning database is torn down first). Read-only: the pool is
  /// internally thread-safe, so any number of serving threads may resolve
  /// symbols through one shared instance.
  const std::shared_ptr<const StringPool>& pool_shared() const { return pool_; }

  size_t NumKeys() const { return num_keys_; }
  size_t NumPostings() const { return postings_.size(); }

  /// Bytes of the four arrays' elements (symbol->slot table, probe table,
  /// offsets, postings). Depends only on the indexed content, so a built
  /// and a snapshot-loaded index agree; feeds AdbReport::index_bytes.
  size_t ApproxBytes() const {
    return slot_of_folded_.size() * sizeof(uint32_t) +
           probe_table_.size() * sizeof(ProbeEntry) +
           offsets_.size() * sizeof(uint32_t) +
           postings_.size() * sizeof(Posting);
  }

  /// Writes the CSR arrays (slot keys in slot order, offsets, postings) to
  /// a kInvertedIndex extent. The probe table is derived state and is not
  /// serialized. Defined in storage/snapshot.cpp.
  void SnapshotSave(ExtentWriter* out) const;

  /// Rebuilds the index from a kInvertedIndex extent over the restored
  /// `pool`, revalidating everything that crosses the trust boundary: slot
  /// keys must be valid folded symbols, offsets monotone, and every posting
  /// must name an existing (relation, attribute) pair of `db` with an
  /// in-range row. The probe table is reconstructed from the slot keys.
  /// Defined in storage/snapshot.cpp.
  static Result<InvertedColumnIndex> SnapshotLoad(
      ExtentReader* in, std::shared_ptr<const StringPool> pool,
      const Database& db);

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One bucket of the flat probe table. 16 bytes; a lookup touches one or
  /// two cache lines instead of chasing unordered_map nodes.
  struct ProbeEntry {
    uint64_t hash = 0;          // full fold-hash of the key
    Symbol folded = kNoSymbol;  // the key's folded pool symbol
    uint32_t slot = kNoSlot;    // kNoSlot marks an empty bucket
  };

  const ProbeEntry* FindProbeEntry(std::string_view text) const;

  std::shared_ptr<const StringPool> pool_;
  // Folded symbol -> dense slot (kNoSlot when the symbol has no postings).
  std::vector<uint32_t> slot_of_folded_;
  // Open-addressing (linear probing) table over the folded keys, sized to
  // a power of two at <= 50% load.
  std::vector<ProbeEntry> probe_table_;
  uint64_t probe_mask_ = 0;
  // Slot s owns postings_[offsets_[s], offsets_[s + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<Posting> postings_;
  size_t num_keys_ = 0;
};

}  // namespace squid

#endif  // SQUID_STORAGE_INVERTED_INDEX_H_
