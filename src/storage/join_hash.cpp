#include "storage/join_hash.h"

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

namespace {

/// Packs an integer probe into a `build`-typed key space.
bool PackIntKey(ValueType build, int64_t i, uint64_t* key) {
  switch (build) {
    case ValueType::kInt64:
      *key = static_cast<uint64_t>(i);
      return true;
    case ValueType::kDouble:
      *key = PackedDoubleBits(static_cast<double>(i));
      return true;
    default:
      return false;
  }
}

/// Packs a double probe into a `build`-typed key space: an int64 build side
/// matches only integral doubles in range (2.0 matches 2; 2.5 nothing).
bool PackDoubleKey(ValueType build, double d, uint64_t* key) {
  switch (build) {
    case ValueType::kDouble:
      *key = PackedDoubleBits(d);
      return true;
    case ValueType::kInt64: {
      if (d < -9.2e18 || d > 9.2e18) return false;  // cast would overflow
      const int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) != d) return false;
      *key = static_cast<uint64_t>(i);
      return true;
    }
    default:
      return false;
  }
}

/// Packs a probe string into a string build column's symbol space.
bool PackStringKey(const Column& build, std::string_view s, uint64_t* key) {
  if (build.type() != ValueType::kString) return false;
  const Symbol sym = build.pool()->Find(s);
  if (sym == kNoSymbol) return false;
  *key = sym;
  return true;
}

}  // namespace

bool PackProbeKey(const Column& build, const Column& probe, size_t row,
                  uint64_t* key) {
  if (probe.IsNull(row)) return false;
  switch (probe.type()) {
    case ValueType::kString:
      if (build.type() == ValueType::kString && probe.pool() == build.pool()) {
        *key = probe.SymbolAt(row);
        return true;
      }
      return PackStringKey(build, probe.StringAt(row), key);
    case ValueType::kInt64:
      return PackIntKey(build.type(), probe.Int64At(row), key);
    case ValueType::kDouble:
      return PackDoubleKey(build.type(), probe.DoubleAt(row), key);
    case ValueType::kNull:
      return false;
  }
  return false;
}

bool PackValueKey(const Column& build, const Value& v, uint64_t* key) {
  switch (v.type()) {
    case ValueType::kString:
      return PackStringKey(build, v.AsString(), key);
    case ValueType::kInt64:
      return PackIntKey(build.type(), v.AsInt64(), key);
    case ValueType::kDouble:
      return PackDoubleKey(build.type(), v.AsDouble(), key);
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

FlatJoinHash::Entry& FlatJoinHash::Slot(uint64_t key) {
  uint64_t i = MixJoinKey(key) & mask_;
  while (table_[i].count != 0 && table_[i].key != key) i = (i + 1) & mask_;
  return table_[i];
}

FlatJoinHash FlatJoinHash::Build(const Column& column,
                                 const std::vector<uint32_t>& rows) {
  FlatJoinHash hash;
  if (rows.empty()) return hash;

  size_t cap = 2;
  while (cap < rows.size() * 2) cap <<= 1;  // <= 50% load
  hash.table_.assign(cap, Entry{});
  hash.mask_ = cap - 1;

  // Pass 1: pack every non-null cell once, find-or-insert its bucket, count
  // the key's rows there, and keep the rows in `rows` order. A key's first
  // row records its position, so while no key repeats every span is its
  // one row in place and the build is done.
  hash.rows_.reserve(rows.size());
  bool repeats = false;
  uint64_t key = 0;
  for (uint32_t r : rows) {
    if (!PackCellKey(column, r, &key)) continue;
    Entry& e = hash.Slot(key);
    if (e.count == 0) {
      e.key = key;
      e.begin = static_cast<uint32_t>(hash.rows_.size());
      ++hash.num_keys_;
    } else {
      repeats = true;
    }
    ++e.count;
    hash.rows_.push_back(r);
  }
  if (!repeats) return hash;

  // Pass 2 (some key repeats): prefix-sum the per-bucket counts into CSR
  // begins (bucket-walk order is arbitrary but fixed), then scatter the rows
  // in order — which keeps each key's span in `rows` order. During the
  // scatter `begin` is the key's write cursor; a final walk rewinds it.
  uint32_t offset = 0;
  for (Entry& e : hash.table_) {
    if (e.count == 0) continue;
    e.begin = offset;
    offset += e.count;
  }
  std::vector<uint32_t> grouped(hash.rows_.size());
  for (uint32_t r : hash.rows_) {
    PackCellKey(column, r, &key);
    grouped[hash.Slot(key).begin++] = r;
  }
  for (Entry& e : hash.table_) e.begin -= e.count;
  hash.rows_ = std::move(grouped);
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
