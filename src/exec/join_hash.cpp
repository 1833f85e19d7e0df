#include "exec/join_hash.h"

#include "storage/string_pool.h"

namespace squid {

bool PackCellKey(const Column& col, size_t row, uint64_t* key) {
  if (col.IsNull(row)) return false;
  switch (col.type()) {
    case ValueType::kString:
      *key = col.SymbolAt(row);
      return true;
    case ValueType::kInt64:
      *key = static_cast<uint64_t>(col.Int64At(row));
      return true;
    case ValueType::kDouble:
      *key = PackedDoubleBits(col.DoubleAt(row));
      return true;
    case ValueType::kNull:
      return false;
  }
  return false;
}

bool PackProbeKey(const Column& build, const Column& probe, size_t row,
                  uint64_t* key) {
  if (probe.IsNull(row)) return false;
  switch (build.type()) {
    case ValueType::kString: {
      if (probe.type() != ValueType::kString) return false;
      if (probe.pool() == build.pool()) {
        *key = probe.SymbolAt(row);
        return true;
      }
      Symbol s = build.pool()->Find(probe.StringAt(row));
      if (s == kNoSymbol) return false;
      *key = s;
      return true;
    }
    case ValueType::kInt64: {
      if (probe.type() == ValueType::kInt64) {
        *key = static_cast<uint64_t>(probe.Int64At(row));
        return true;
      }
      if (probe.type() == ValueType::kDouble) {
        double d = probe.DoubleAt(row);
        if (d < -9.2e18 || d > 9.2e18) return false;  // cast would overflow
        int64_t i = static_cast<int64_t>(d);
        if (static_cast<double>(i) != d) return false;  // 2.5 matches nothing
        *key = static_cast<uint64_t>(i);
        return true;
      }
      return false;
    }
    case ValueType::kDouble: {
      if (probe.type() == ValueType::kDouble) {
        *key = PackedDoubleBits(probe.DoubleAt(row));
        return true;
      }
      if (probe.type() == ValueType::kInt64) {
        *key = PackedDoubleBits(static_cast<double>(probe.Int64At(row)));
        return true;
      }
      return false;
    }
    case ValueType::kNull:
      return false;
  }
  return false;
}

bool JoinCellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.IsNull(ra) || b.IsNull(rb)) return false;
  const bool a_str = a.type() == ValueType::kString;
  const bool b_str = b.type() == ValueType::kString;
  if (a_str != b_str) return false;
  if (a_str) {
    if (a.pool() == b.pool()) return a.SymbolAt(ra) == b.SymbolAt(rb);
    return a.StringAt(ra) == b.StringAt(rb);
  }
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    return a.Int64At(ra) == b.Int64At(rb);
  }
  return a.NumericAt(ra) == b.NumericAt(rb);
}

FlatJoinHash FlatJoinHash::Build(const Column& column,
                                 const std::vector<uint32_t>& rows) {
  FlatJoinHash hash;
  if (rows.empty()) return hash;

  // Pass 1: pack every non-null cell once, find-or-insert its bucket, and
  // count per-key rows in the bucket itself (`begin` temporarily holds the
  // key's dense slot index so pass 2 can find its offset).
  struct Keyed {
    uint64_t bucket;
    uint32_t row;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(rows.size());

  size_t cap = 2;
  while (cap < rows.size() * 2) cap <<= 1;  // <= 50% load
  hash.table_.assign(cap, Entry{});
  hash.mask_ = cap - 1;

  uint64_t key = 0;
  for (uint32_t r : rows) {
    if (!PackCellKey(column, r, &key)) continue;
    uint64_t i = MixJoinKey(key) & hash.mask_;
    while (true) {
      Entry& e = hash.table_[i];
      if (e.count == 0) {
        e.key = key;
        ++hash.num_keys_;
      }
      if (e.key == key) {
        ++e.count;
        keyed.push_back(Keyed{i, r});
        break;
      }
      i = (i + 1) & hash.mask_;
    }
  }

  // Pass 2: prefix-sum the per-bucket counts into CSR begins (bucket-walk
  // order is arbitrary but fixed), then scatter rows in build order — which
  // keeps each key's span in `rows` order. During the scatter `begin` is
  // the key's write cursor; a final walk rewinds it to the span start.
  uint32_t offset = 0;
  for (Entry& e : hash.table_) {
    if (e.count == 0) continue;
    e.begin = offset;
    offset += e.count;
  }
  hash.rows_.resize(keyed.size());
  for (const Keyed& k : keyed) {
    hash.rows_[hash.table_[k.bucket].begin++] = k.row;
  }
  for (Entry& e : hash.table_) e.begin -= e.count;
  return hash;
}

FlatJoinHash::RowSpan FlatJoinHash::Probe(uint64_t key) const {
  if (table_.empty()) return RowSpan{};
  uint64_t i = MixJoinKey(key) & mask_;
  while (true) {
    const Entry& e = table_[i];
    if (e.count == 0) return RowSpan{};
    if (e.key == key) return RowSpan{rows_.data() + e.begin, e.count};
    i = (i + 1) & mask_;
  }
}

void FlatJoinHash::ProbeBatch(const uint64_t* keys, const uint8_t* valid,
                              size_t n, RowSpan* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = valid[i] ? Probe(keys[i]) : RowSpan{};
}

}  // namespace squid
