#include "exec/expression.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string_view>
#include <utility>

namespace squid {

namespace {

using Kind = ScanKernel::Kind;

/// Three-way result the way Value::Compare takes it: unordered pairs (NaN)
/// come out 0, i.e. equal.
template <typename T>
int ThreeWay(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// Applies `op` to a three-way result, as EvalCompare does.
bool ApplyOp(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

ScanKernel Fixed(bool every_non_null) {
  ScanKernel k;
  k.kind = every_non_null ? Kind::kNonNull : Kind::kNoRows;
  return k;
}

/// Resolves `cell OP v` over `col`'s storage type.
ScanKernel ResolveCompare(const Column& col, CompareOp op, const Value& v) {
  if (v.is_null() || col.type() == ValueType::kNull) return Fixed(false);
  const bool col_num = col.type() != ValueType::kString;
  const bool v_num = v.type() != ValueType::kString;
  // Numbers sort before strings whatever the values, so a mixed pair has
  // one three-way result for every cell.
  if (col_num != v_num) return Fixed(ApplyOp(op, col_num ? -1 : 1));
  ScanKernel k;
  k.op = op;
  if (!col_num) {
    if (op == CompareOp::kEq || op == CompareOp::kNe) {
      // The pool interns each string once, so string equality is symbol
      // equality, and a string absent from the pool is in no cell.
      const Symbol s = col.pool()->Find(v.AsString());
      if (s == kNoSymbol) return Fixed(op == CompareOp::kNe);
      k.kind = Kind::kSymbol;
      k.symbol = s;
      return k;
    }
    k.kind = Kind::kString;
    k.text = v.AsString();
    return k;
  }
  if (col.type() == ValueType::kInt64 && v.type() == ValueType::kInt64) {
    k.kind = Kind::kInt64;
    k.int_value = v.AsInt64();
    return k;
  }
  k.kind = Kind::kNumeric;
  k.num_value = v.type() == ValueType::kInt64 ? static_cast<double>(v.AsInt64())
                                              : v.AsDouble();
  return k;
}

/// Keeps the non-null rows passing `test`: of [0, n) when `scan`, else of
/// the rows already in `sel`. Either way `sel` stays ascending.
template <typename Test>
void Select(const Column& col, size_t n, bool scan, std::vector<uint32_t>* sel,
            Test test) {
  const uint8_t* valid = col.valid_raw().data();
  if (scan) {
    for (size_t r = 0; r < n; ++r) {
      if (valid[r] && test(r)) sel->push_back(static_cast<uint32_t>(r));
    }
    return;
  }
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const uint32_t r = (*sel)[i];
    if (valid[r] && test(r)) (*sel)[kept++] = r;
  }
  sel->resize(kept);
}

/// Select over a three-way comparator, with `op` hoisted out of the loop.
template <typename Cmp>
void SelectCompare(const Column& col, CompareOp op, size_t n, bool scan,
                   std::vector<uint32_t>* sel, Cmp cmp) {
  switch (op) {
    case CompareOp::kEq:
      return Select(col, n, scan, sel, [&](size_t r) { return cmp(r) == 0; });
    case CompareOp::kNe:
      return Select(col, n, scan, sel, [&](size_t r) { return cmp(r) != 0; });
    case CompareOp::kLt:
      return Select(col, n, scan, sel, [&](size_t r) { return cmp(r) < 0; });
    case CompareOp::kLe:
      return Select(col, n, scan, sel, [&](size_t r) { return cmp(r) <= 0; });
    case CompareOp::kGt:
      return Select(col, n, scan, sel, [&](size_t r) { return cmp(r) > 0; });
    case CompareOp::kGe:
      return Select(col, n, scan, sel, [&](size_t r) { return cmp(r) >= 0; });
  }
}

/// Applies one kernel: scans [0, n) into `sel` when `scan`, else refines it.
void ApplyKernel(const ScanKernel& k, const Column& col, size_t n, bool scan,
                 std::vector<uint32_t>* sel) {
  switch (k.kind) {
    case Kind::kNoRows:
      sel->clear();
      return;
    case Kind::kNonNull:
      return Select(col, n, scan, sel, [](size_t) { return true; });
    case Kind::kSymbol: {
      const Symbol* syms = col.syms_raw().data();
      const Symbol s = k.symbol;
      const bool want_equal = k.op == CompareOp::kEq;
      return Select(col, n, scan, sel,
                    [=](size_t r) { return (syms[r] == s) == want_equal; });
    }
    case Kind::kString: {
      const std::string_view text = k.text;
      return SelectCompare(col, k.op, n, scan, sel, [&](size_t r) {
        return ThreeWay(col.StringAt(r).compare(text), 0);
      });
    }
    case Kind::kInt64: {
      const int64_t* ints = col.ints_raw().data();
      const int64_t y = k.int_value;
      return SelectCompare(col, k.op, n, scan, sel,
                           [=](size_t r) { return ThreeWay(ints[r], y); });
    }
    case Kind::kNumeric: {
      const double y = k.num_value;
      if (col.type() == ValueType::kInt64) {
        const int64_t* ints = col.ints_raw().data();
        return SelectCompare(col, k.op, n, scan, sel, [=](size_t r) {
          return ThreeWay(static_cast<double>(ints[r]), y);
        });
      }
      const double* doubles = col.doubles_raw().data();
      return SelectCompare(col, k.op, n, scan, sel,
                           [=](size_t r) { return ThreeWay(doubles[r], y); });
    }
    case Kind::kAnyOf: {
      // Union of the members' selections, each taken from the same input.
      std::vector<uint32_t> input;
      if (!scan) input.swap(*sel);
      std::vector<uint32_t> out;
      std::vector<uint32_t> part;
      std::vector<uint32_t> merged;
      for (const ScanKernel& member : k.any_of) {
        part = input;
        ApplyKernel(member, col, n, scan, &part);
        merged.clear();
        std::set_union(out.begin(), out.end(), part.begin(), part.end(),
                       std::back_inserter(merged));
        out.swap(merged);
      }
      *sel = std::move(out);
      return;
    }
  }
}

/// True for the kernels a value order can seek: an `=` comparison against
/// a string symbol or an int64 constant. IN lists, <>, orderings and
/// numeric-widening compares scan.
bool Seekable(const BoundPredicate& p, const ScanKernel& k) {
  return p.predicate.kind == Predicate::Kind::kCompare && k.op == CompareOp::kEq &&
         (k.kind == Kind::kSymbol || k.kind == Kind::kInt64);
}

/// The run of `order` (rows of `col` in Column::CompareRows order, nulls
/// first) whose cells satisfy the seekable kernel `k`: two binary searches
/// over a three-way compare of the cell against the constant.
std::pair<const uint32_t*, const uint32_t*> EqualRun(const ScanKernel& k,
                                                     const Column& col,
                                                     const std::vector<uint32_t>& order) {
  const uint8_t* valid = col.valid_raw().data();
  auto run = [&](auto cmp) {
    const uint32_t* lo = std::partition_point(
        order.data(), order.data() + order.size(), [&](uint32_t r) {
          return !valid[r] || cmp(r) < 0;
        });
    const uint32_t* hi = std::partition_point(
        lo, order.data() + order.size(),
        [&](uint32_t r) { return cmp(r) == 0; });
    return std::make_pair(lo, hi);
  };
  if (k.kind == Kind::kSymbol) {
    const Symbol* syms = col.syms_raw().data();
    const std::string_view text = col.pool()->View(k.symbol);
    return run([&](uint32_t r) {
      return syms[r] == k.symbol ? 0 : ThreeWay(col.StringAt(r).compare(text), 0);
    });
  }
  const int64_t* ints = col.ints_raw().data();
  return run([&](uint32_t r) { return ThreeWay(ints[r], k.int_value); });
}

}  // namespace

Result<BoundPredicate> BindPredicate(const Table& table, const Predicate& pred) {
  SQUID_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(pred.column.attribute));
  BoundPredicate bound;
  bound.column = col;
  bound.predicate = pred;
  switch (pred.kind) {
    case Predicate::Kind::kCompare:
      bound.kernels.push_back(ResolveCompare(*col, pred.op, pred.value));
      break;
    case Predicate::Kind::kBetween:
      bound.kernels.push_back(ResolveCompare(*col, CompareOp::kGe, pred.lo));
      bound.kernels.push_back(ResolveCompare(*col, CompareOp::kLe, pred.hi));
      break;
    case Predicate::Kind::kInList: {
      // `cell IN (...)` is `cell = member` for any member.
      ScanKernel any;
      any.kind = Kind::kAnyOf;
      for (const Value& member : pred.in_list) {
        ScanKernel eq = ResolveCompare(*col, CompareOp::kEq, member);
        if (eq.kind == Kind::kNoRows) continue;
        if (eq.kind == Kind::kNonNull) {
          any = std::move(eq);
          break;
        }
        any.any_of.push_back(std::move(eq));
      }
      if (any.kind == Kind::kAnyOf && any.any_of.size() <= 1) {
        ScanKernel only =
            any.any_of.empty() ? Fixed(false) : std::move(any.any_of[0]);
        any = std::move(only);
      }
      bound.kernels.push_back(std::move(any));
      break;
    }
  }
  return bound;
}

std::vector<uint32_t> FilterRows(const Table& table,
                                 const std::vector<BoundPredicate>& preds,
                                 size_t* rows_visited) {
  const size_t n = table.num_rows();
  std::vector<uint32_t> sel;
  if (preds.empty()) {
    // No predicates: the scan is pruned entirely; nothing is "visited".
    sel.resize(n);
    std::iota(sel.begin(), sel.end(), 0u);
    return sel;
  }
  // An `=` kernel on the table's value-ordered column seeks its run (rows
  // ascending) instead of scanning; every other kernel then refines it.
  const ScanKernel* seek = nullptr;
  for (const auto& p : preds) {
    const std::vector<uint32_t>* order = table.ValueOrderOf(p.column);
    if (order == nullptr) continue;
    for (const ScanKernel& k : p.kernels) {
      if (!Seekable(p, k)) continue;
      seek = &k;
      const auto [lo, hi] = EqualRun(k, *p.column, *order);
      sel.assign(lo, hi);
      break;
    }
    if (seek != nullptr) break;
  }
  if (rows_visited) *rows_visited += seek != nullptr ? sel.size() : n;
  if (seek != nullptr && sel.empty()) return sel;
  bool scan = seek == nullptr;
  for (const auto& p : preds) {
    for (const ScanKernel& k : p.kernels) {
      if (&k == seek) continue;
      ApplyKernel(k, *p.column, n, scan, &sel);
      scan = false;
      if (sel.empty()) return sel;
    }
  }
  return sel;
}

}  // namespace squid
