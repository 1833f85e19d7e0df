#ifndef SQUID_EXEC_GROUP_TABLE_H_
#define SQUID_EXEC_GROUP_TABLE_H_

/// \file group_table.h
/// \brief Group-by key table for the executor's aggregation path,
/// extracted from the inline open-addressing loop it grew up as.
///
/// A grouping key is `parts` packed 64-bit words per tuple — (validity,
/// symbol-or-bits) pairs, one pair per GROUP BY column — stored contiguously
/// in one flat array. The table assigns dense group ids in first-occurrence
/// order (the executor's output-determinism contract) and each group
/// remembers only its first tuple's index plus a running count. The three
/// arrays (slot table, group list, key storage) are plain vectors.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace squid {

/// \brief Open-addressing (linear probing) table from packed grouping keys
/// to dense group ids, with first-tuple and count bookkeeping.
class GroupKeyTable {
 public:
  /// One group: full key hash (kept for rehash), the buffer index of the
  /// first tuple that produced it, and how many tuples mapped to it.
  struct Group {
    uint64_t hash;
    uint32_t first_tuple;
    uint32_t count;
  };

  /// `parts` = packed words per key (2 per GROUP BY column). Must be >= 1.
  explicit GroupKeyTable(size_t parts);

  /// Folds `n` tuples into the table. `packed` holds n * parts words,
  /// row-major: tuple j's key is packed[j * parts, (j + 1) * parts). Tuple j
  /// is recorded as buffer index `tuple_base + j` if it opens a new group.
  void AddBatch(const uint64_t* packed, size_t n, uint32_t tuple_base);

  /// Groups in first-occurrence order.
  const Group* groups() const { return groups_.data(); }
  size_t num_groups() const { return groups_.size(); }

  /// Exact footprint of slots + groups + key storage.
  size_t ApproxBytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           groups_.capacity() * sizeof(Group) +
           key_storage_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

  /// FNV-1a over the MixJoinKey image of each packed word.
  uint64_t HashKey(const uint64_t* key) const;

  /// Doubles the slot table and reinserts every group by its stored hash.
  void Rehash();

  size_t parts_;
  std::vector<uint32_t> slots_;        // power-of-two, <= 50% load
  std::vector<Group> groups_;          // dense, first-occurrence order
  std::vector<uint64_t> key_storage_;  // group g's key at [g * parts_, ...)
  size_t cap_;
};

}  // namespace squid

#endif  // SQUID_EXEC_GROUP_TABLE_H_
