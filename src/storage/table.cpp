#include "storage/table.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "storage/join_hash.h"

namespace squid {

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case ValueType::kInt64:
      if (v.type() != ValueType::kInt64) {
        return Status::InvalidArgument("expected int64, got " +
                                       std::string(ValueTypeName(v.type())));
      }
      AppendInt64(v.AsInt64());
      return Status::OK();
    case ValueType::kDouble:
      if (v.type() == ValueType::kInt64) {
        AppendDouble(static_cast<double>(v.AsInt64()));
      } else if (v.type() == ValueType::kDouble) {
        AppendDouble(v.AsDouble());
      } else {
        return Status::InvalidArgument("expected double, got " +
                                       std::string(ValueTypeName(v.type())));
      }
      return Status::OK();
    case ValueType::kString:
      if (v.type() != ValueType::kString) {
        return Status::InvalidArgument("expected string, got " +
                                       std::string(ValueTypeName(v.type())));
      }
      AppendString(v.AsString());
      return Status::OK();
    case ValueType::kNull:
      return Status::Internal("column with null type");
  }
  return Status::Internal("unreachable");
}

void Column::AppendInt64(int64_t v) {
  if (type_ == ValueType::kDouble) {
    doubles_.push_back(static_cast<double>(v));
  } else {
    ints_.push_back(v);
  }
  valid_.push_back(1);
}

void Column::AppendDouble(double v) {
  doubles_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendString(std::string_view v) {
  syms_.push_back(pool_->Intern(v));
  valid_.push_back(1);
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      syms_.push_back(pool_->Intern(std::string_view()));
      break;
    case ValueType::kNull:
      break;
  }
  valid_.push_back(0);
}

void Column::AppendFrom(const Column& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(src.Int64At(row));
      break;
    case ValueType::kDouble:
      AppendDouble(src.NumericAt(row));
      break;
    case ValueType::kString:
      if (src.pool_ == pool_) {
        syms_.push_back(src.syms_[row]);
        valid_.push_back(1);
      } else {
        AppendString(src.StringAt(row));
      }
      break;
    case ValueType::kNull:
      break;
  }
}

Value Column::ValueAt(size_t row) const {
  if (!valid_[row]) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[row]);
    case ValueType::kDouble:
      return Value(doubles_[row]);
    case ValueType::kString:
      return Value(std::string(StringAt(row)));
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(n);
      break;
    case ValueType::kDouble:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      syms_.reserve(n);
      break;
    case ValueType::kNull:
      break;
  }
}

Status Column::SnapshotRestore(std::vector<uint8_t> valid,
                               std::vector<int64_t> ints,
                               std::vector<double> doubles,
                               std::vector<Symbol> syms) {
  if (!valid_.empty()) {
    return Status::Internal("SnapshotRestore on a non-empty column");
  }
  auto shape_error = [](const char* what) {
    return Status::Corruption(std::string("snapshot column: ") + what);
  };
  const size_t n = valid.size();
  switch (type_) {
    case ValueType::kInt64:
      if (ints.size() != n || !doubles.empty() || !syms.empty()) {
        return shape_error("int64 vector shape mismatch");
      }
      break;
    case ValueType::kDouble:
      if (doubles.size() != n || !ints.empty() || !syms.empty()) {
        return shape_error("double vector shape mismatch");
      }
      break;
    case ValueType::kString:
      if (syms.size() != n || !ints.empty() || !doubles.empty()) {
        return shape_error("string vector shape mismatch");
      }
      for (Symbol s : syms) {
        if (!pool_->IsValidSymbol(s)) {
          return shape_error("cell symbol outside the restored pool");
        }
      }
      break;
    case ValueType::kNull:
      return shape_error("column with null type");
  }
  for (uint8_t v : valid) {
    if (v > 1) return shape_error("validity byte not in {0, 1}");
  }
  valid_ = std::move(valid);
  ints_ = std::move(ints);
  doubles_ = std::move(doubles);
  syms_ = std::move(syms);
  return Status::OK();
}

Table::Table(Schema schema, std::shared_ptr<StringPool> pool)
    : schema_(std::move(schema)), pool_(std::move(pool)) {
  if (!pool_) pool_ = std::make_shared<StringPool>();
  columns_.reserve(schema_.num_attributes());
  for (const auto& attr : schema_.attributes()) {
    columns_.push_back(std::make_unique<Column>(attr.type, pool_.get()));
  }
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  SQUID_ASSIGN_OR_RETURN(size_t idx, schema_.AttributeIndex(name));
  return columns_[idx].get();
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(columns_.size()) + " for relation '" + name() + "'");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    SQUID_RETURN_NOT_OK(columns_[i]->Append(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

std::vector<Value> Table::RowValues(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col->ValueAt(row));
  return out;
}

void Table::Reserve(size_t n) {
  for (auto& col : columns_) col->Reserve(n);
}

Status Table::FinishColumnFill(size_t num_rows) {
  if (num_rows_ != 0) {
    return Status::Internal("FinishColumnFill on a non-empty table");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->size() != num_rows) {
      return Status::Corruption(
          "table '" + name() + "': column " + std::to_string(i) +
          " holds " + std::to_string(columns_[i]->size()) + " cells, expected " +
          std::to_string(num_rows));
    }
  }
  num_rows_ = num_rows;
  return Status::OK();
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += col->size();  // validity
    switch (col->type()) {
      case ValueType::kInt64:
        bytes += col->size() * sizeof(int64_t);
        break;
      case ValueType::kDouble:
        bytes += col->size() * sizeof(double);
        break;
      case ValueType::kString:
        bytes += col->size() * sizeof(Symbol);  // dictionary codes
        break;
      case ValueType::kNull:
        break;
    }
  }
  return bytes;
}

namespace {

/// Row ids are uint32 in both access paths.
constexpr size_t kMaxAccessPathRows = 0xFFFFFFFFull;

}  // namespace

Status Table::BuildPkIndex() {
  if (pk_index() != nullptr) return Status::OK();
  const std::optional<std::string>& pk = schema_.primary_key();
  if (!pk.has_value()) {
    return Status::InvalidArgument("relation '" + name() + "' has no primary key");
  }
  SQUID_ASSIGN_OR_RETURN(const Column* col, ColumnByName(*pk));
  if (num_rows_ > kMaxAccessPathRows) {
    return Status::OutOfRange("relation '" + name() + "' is too large to index");
  }
  std::vector<uint32_t> rows(num_rows_);
  std::iota(rows.begin(), rows.end(), 0u);
  pk_index_ = std::make_shared<const FlatJoinHash>(FlatJoinHash::Build(*col, rows));
  pk_column_ = col;
  pk_rows_ = num_rows_;
  return Status::OK();
}

Status Table::BuildValueOrder(const std::string& attr) {
  SQUID_ASSIGN_OR_RETURN(const Column* col, ColumnByName(attr));
  ordered_column_ = nullptr;
  value_order_ = {};
  if (col->type() != ValueType::kString && col->type() != ValueType::kInt64) {
    return Status::OK();
  }
  const size_t n = num_rows_;
  if (n > kMaxAccessPathRows) {
    return Status::OutOfRange("relation '" + name() + "' is too large to order");
  }

  // Dense id per row: 0 for NULL, else its distinct value's first-appearance
  // number. Distinct packed keys are distinct values (one symbol per string).
  // The ids come from a small open-addressing map of {key, id} slots (id 0
  // marks an empty slot) that doubles at half load: a relation has few
  // distinct values, so every probe stays in cache.
  std::vector<uint32_t> id(n);
  std::vector<uint32_t> first_row;  // per value id - 1: a row holding it
  std::vector<std::pair<uint64_t, uint32_t>> slots(64);
  auto slot_of = [&](uint64_t key) -> std::pair<uint64_t, uint32_t>& {
    const size_t mask = slots.size() - 1;
    size_t i = MixJoinKey(key) & mask;
    while (slots[i].second != 0 && slots[i].first != key) i = (i + 1) & mask;
    return slots[i];
  };
  for (size_t r = 0; r < n; ++r) {
    uint64_t key = 0;
    if (!PackCellKey(*col, r, &key)) continue;
    std::pair<uint64_t, uint32_t>* slot = &slot_of(key);
    if (slot->second == 0) {
      first_row.push_back(static_cast<uint32_t>(r));
      *slot = {key, static_cast<uint32_t>(first_row.size())};
      if (first_row.size() * 2 > slots.size()) {
        std::vector<std::pair<uint64_t, uint32_t>> old(slots.size() * 2);
        old.swap(slots);
        for (const auto& kv : old) {
          if (kv.second != 0) slot_of(kv.first) = kv;
        }
        slot = &slot_of(key);
      }
    }
    id[r] = slot->second;
  }

  // Rank the few distinct values once; NULL ranks first.
  std::vector<uint32_t> by_value(first_row.size());
  std::iota(by_value.begin(), by_value.end(), 1u);
  std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
    return col->CompareRows(first_row[a - 1], first_row[b - 1]) < 0;
  });
  std::vector<uint32_t> rank(first_row.size() + 1, 0);
  for (size_t i = 0; i < by_value.size(); ++i) {
    rank[by_value[i]] = static_cast<uint32_t>(i + 1);
  }

  // Counting sort by rank; scattering rows in ascending order keeps each
  // value's run ascending.
  std::vector<uint32_t> begin(rank.size() + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    id[r] = rank[id[r]];
    ++begin[id[r] + 1];
  }
  for (size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
  value_order_.resize(n);
  for (size_t r = 0; r < n; ++r) value_order_[begin[id[r]]++] = static_cast<uint32_t>(r);
  ordered_column_ = col;
  return Status::OK();
}

}  // namespace squid
