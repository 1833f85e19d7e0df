#include "exec/executor.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "exec/expression.h"
#include "exec/group_table.h"
#include "exec/join_hash.h"
#include "exec/tuple_buffer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace squid {

namespace {

/// Tuples probed per batch: keys for a whole chunk are packed into one
/// contiguous array, probed together, and the surviving (tuple, match) pairs
/// are emitted through selection vectors.
constexpr size_t kProbeChunk = 1024;

/// Selection vectors (and group-by first-tuple ids) index tuples with
/// uint32, so an intermediate buffer must stay below 2^32 tuples; growing
/// past that fails loudly instead of silently wrapping the indexes.
constexpr size_t kMaxTupleIndex = 0xFFFFFFFFull;

/// Working state for one select block: per-alias table pointers, surviving
/// row ids per alias, and the columnar tuple buffer (one flat row-id column
/// per bound alias; column i belongs to alias bound_order[i]).
struct JoinState {
  std::vector<const Table*> tables;         // parallel to query.from
  std::vector<std::vector<uint32_t>> rows;  // candidate row ids per alias
  TupleBuffer tuples;
  std::vector<size_t> bound_order;          // alias indexes in bind order
  std::vector<bool> bound;
};

}  // namespace

Result<ResultSet> Executor::Execute(const Query& query) {
  if (query.branches.empty()) {
    return Status::InvalidArgument("query with no branches");
  }
  // Every full-query run feeds the global executor histogram, so any layer
  // that executes abduced queries (quickstart, eval harness, benches) shows
  // up in DumpMetricsText as squid_exec_run_ns. One clock pair per query —
  // noise next to the run itself — and skipped when metrics are disabled.
  const uint64_t start_ns =
      obs::MetricsEnabled() ? obs::MonotonicNowNs() : 0;
  join_hash_cache_.clear();
  auto run = [&]() -> Result<ResultSet> {
    SQUID_ASSIGN_OR_RETURN(ResultSet out, ExecuteSelectImpl(query.branches[0]));
    if (query.branches.size() > 1) {
      out.Deduplicate();  // INTERSECT has set semantics
      for (size_t i = 1; i < query.branches.size(); ++i) {
        SQUID_ASSIGN_OR_RETURN(ResultSet other,
                               ExecuteSelectImpl(query.branches[i]));
        out.IntersectWith(other.ToSet());
      }
    }
    return out;
  };
  Result<ResultSet> result = run();
  if (start_ns != 0) {
    static obs::LatencyHistogram* hist =
        obs::MetricsRegistry::Global().GetHistogram("squid_exec_run_ns");
    const uint64_t now = obs::MonotonicNowNs();
    hist->Record(now >= start_ns ? now - start_ns : 0);
  }
  return result;
}

Result<ResultSet> Executor::ExecuteSelect(const SelectQuery& query) {
  join_hash_cache_.clear();
  return ExecuteSelectImpl(query);
}

Result<ResultSet> Executor::ExecuteSelectImpl(const SelectQuery& query) {
  if (query.from.empty()) return Status::InvalidArgument("empty FROM clause");
  const size_t num_aliases = query.from.size();

  JoinState state;
  state.tables.resize(num_aliases);
  state.rows.resize(num_aliases);
  state.bound.assign(num_aliases, false);

  // Aliases must be unique; a duplicate would silently misroute predicates.
  for (size_t i = 0; i < num_aliases; ++i) {
    for (size_t j = i + 1; j < num_aliases; ++j) {
      if (query.from[i].alias == query.from[j].alias) {
        return Status::InvalidArgument("duplicate FROM alias '" +
                                       query.from[i].alias + "'");
      }
    }
  }

  // Resolve tables and push single-table predicates down to scans.
  for (size_t i = 0; i < num_aliases; ++i) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(query.from[i].table_name));
    state.tables[i] = table;
    std::vector<BoundPredicate> preds;
    for (const auto& p : query.where) {
      if (p.column.table_alias != query.from[i].alias) continue;
      SQUID_ASSIGN_OR_RETURN(BoundPredicate bound, BindPredicate(*table, p));
      preds.push_back(std::move(bound));
    }
    state.rows[i] = FilterRows(*table, preds, &stats_.rows_scanned);
  }
  // Validate predicate aliases (catch typos referencing unknown aliases).
  for (const auto& p : query.where) {
    if (!query.FindAlias(p.column.table_alias)) {
      return Status::InvalidArgument("predicate references unknown alias '" +
                                     p.column.table_alias + "'");
    }
  }
  for (const auto& j : query.join_predicates) {
    if (!query.FindAlias(j.left.table_alias) || !query.FindAlias(j.right.table_alias)) {
      return Status::InvalidArgument("join references unknown alias");
    }
  }

  // Start from the smallest filtered relation that appears in a join.
  // Join-disconnected aliases are excluded whenever any join-connected one
  // exists: starting from a small disconnected FROM entry would force an
  // immediate cartesian expansion before any hash join gets to prune.
  // Without joins (or with only disconnected aliases) fall back to the
  // globally smallest.
  std::vector<bool> in_join(num_aliases, false);
  for (const auto& j : query.join_predicates) {
    size_t li = *query.FindAlias(j.left.table_alias);
    size_t ri = *query.FindAlias(j.right.table_alias);
    if (li == ri) continue;  // self-edge: a filter, not a connection
    in_join[li] = true;
    in_join[ri] = true;
  }
  size_t start = num_aliases;
  for (size_t i = 0; i < num_aliases; ++i) {
    if (!in_join[i]) continue;
    if (start == num_aliases ||
        state.rows[i].size() < state.rows[start].size()) {
      start = i;
    }
  }
  if (start == num_aliases) {
    start = 0;
    for (size_t i = 1; i < num_aliases; ++i) {
      if (state.rows[i].size() < state.rows[start].size()) start = i;
    }
  }
  state.bound[start] = true;
  state.bound_order.push_back(start);
  // rows[start] is dead after this (start is bound, so it is never a build
  // or expansion side again) — move it into the buffer.
  state.tuples.InitSingle(std::move(state.rows[start]));

  // Iteratively bind the remaining aliases through join predicates.
  size_t bound_count = 1;
  while (bound_count < num_aliases) {
    // Find a join predicate with exactly one side bound.
    ssize_t pick = -1;
    bool pick_left_bound = false;
    size_t next_alias = 0;
    for (size_t jp = 0; jp < query.join_predicates.size(); ++jp) {
      const auto& j = query.join_predicates[jp];
      size_t li = *query.FindAlias(j.left.table_alias);
      size_t ri = *query.FindAlias(j.right.table_alias);
      if (state.bound[li] && !state.bound[ri]) {
        pick = static_cast<ssize_t>(jp);
        pick_left_bound = true;
        next_alias = ri;
        break;
      }
      if (!state.bound[li] && state.bound[ri]) {
        pick = static_cast<ssize_t>(jp);
        pick_left_bound = false;
        next_alias = li;
        break;
      }
    }
    if (pick < 0) {
      // Disconnected FROM entry: cartesian product (rare; kept correct).
      for (size_t i = 0; i < num_aliases; ++i) {
        if (!state.bound[i]) {
          next_alias = i;
          break;
        }
      }
      const std::vector<uint32_t>& new_rows = state.rows[next_alias];
      // Check the product before reserving it: a few disconnected
      // mid-sized tables multiply past any buffer that could be allocated.
      if (!new_rows.empty() &&
          state.tuples.size() > kMaxTupleIndex / new_rows.size()) {
        return Status::OutOfRange("intermediate result exceeds 2^32 tuples");
      }
      TupleBuffer expanded;
      expanded.InitEmpty(state.tuples.width() + 1,
                         state.tuples.size() * new_rows.size());
      std::array<uint32_t, kProbeChunk> sel;
      std::array<uint32_t, kProbeChunk> out_rows;
      size_t fill = 0;
      for (size_t t = 0; t < state.tuples.size(); ++t) {
        for (uint32_t r : new_rows) {
          sel[fill] = static_cast<uint32_t>(t);
          out_rows[fill] = r;
          if (++fill == kProbeChunk) {
            expanded.AppendExpanded(state.tuples, sel.data(), out_rows.data(), fill);
            fill = 0;
          }
        }
      }
      expanded.AppendExpanded(state.tuples, sel.data(), out_rows.data(), fill);
      stats_.tuples_materialized += expanded.size();
      state.tuples = std::move(expanded);
      state.bound[next_alias] = true;
      state.bound_order.push_back(next_alias);
      ++bound_count;
      continue;
    }

    const auto& j = query.join_predicates[pick];
    const ColumnRef& bound_col = pick_left_bound ? j.left : j.right;
    const ColumnRef& new_col = pick_left_bound ? j.right : j.left;
    size_t bound_alias = *query.FindAlias(bound_col.table_alias);

    // Build (or reuse) a FlatJoinHash over the new table's filtered rows,
    // keyed by packed cell keys (symbols for strings). Unfiltered build
    // sides are cached on the Executor and shared across INTERSECT
    // branches, which repeat the same FK joins per branch.
    SQUID_ASSIGN_OR_RETURN(const Column* new_column,
                           state.tables[next_alias]->ColumnByName(new_col.attribute));
    const bool unfiltered =
        state.rows[next_alias].size() == state.tables[next_alias]->num_rows();
    std::shared_ptr<const FlatJoinHash> hash;
    if (unfiltered) {
      auto cached = join_hash_cache_.find(new_column);
      if (cached != join_hash_cache_.end()) {
        hash = cached->second;
        ++stats_.join_hashes_reused;
      }
    }
    if (!hash) {
      hash = std::make_shared<const FlatJoinHash>(
          FlatJoinHash::Build(*new_column, state.rows[next_alias]));
      ++stats_.join_hashes_built;
      if (unfiltered) join_hash_cache_.emplace(new_column, hash);
    }

    // Probe side: locate the bound alias position within tuples.
    size_t bound_pos = 0;
    for (size_t i = 0; i < state.bound_order.size(); ++i) {
      if (state.bound_order[i] == bound_alias) {
        bound_pos = i;
        break;
      }
    }
    SQUID_ASSIGN_OR_RETURN(const Column* bound_column,
                           state.tables[bound_alias]->ColumnByName(bound_col.attribute));

    // Collect any additional join predicates between `next_alias` and bound
    // aliases so multi-edge joins are applied in the same pass.
    struct ExtraEdge {
      size_t tuple_pos;
      const Column* bound_column;
      const Column* new_column;
    };
    std::vector<ExtraEdge> extras;
    for (size_t jp = 0; jp < query.join_predicates.size(); ++jp) {
      if (jp == static_cast<size_t>(pick)) continue;
      const auto& e = query.join_predicates[jp];
      size_t li = *query.FindAlias(e.left.table_alias);
      size_t ri = *query.FindAlias(e.right.table_alias);
      const ColumnRef* bside = nullptr;
      const ColumnRef* nside = nullptr;
      if (li == next_alias && state.bound[ri]) {
        nside = &e.left;
        bside = &e.right;
      } else if (ri == next_alias && state.bound[li]) {
        nside = &e.right;
        bside = &e.left;
      } else {
        continue;
      }
      size_t balias = *query.FindAlias(bside->table_alias);
      size_t bpos = 0;
      for (size_t i = 0; i < state.bound_order.size(); ++i) {
        if (state.bound_order[i] == balias) {
          bpos = i;
          break;
        }
      }
      SQUID_ASSIGN_OR_RETURN(const Column* bcol,
                             state.tables[balias]->ColumnByName(bside->attribute));
      SQUID_ASSIGN_OR_RETURN(const Column* ncol,
                             state.tables[next_alias]->ColumnByName(nside->attribute));
      extras.push_back(ExtraEdge{bpos, bcol, ncol});
    }

    // Vectorized probe: per chunk, pack the probe keys of kProbeChunk
    // tuples into one contiguous array, batch-probe the FlatJoinHash, then
    // expand matches through selection vectors. Match order per tuple is
    // build order, as with the per-tuple loop this replaces.
    TupleBuffer joined;
    joined.InitEmpty(state.tuples.width() + 1, state.tuples.size());
    const std::vector<uint32_t>& probe_col = state.tuples.column(bound_pos);
    std::array<uint64_t, kProbeChunk> keys;
    std::array<uint8_t, kProbeChunk> valid;
    std::array<FlatJoinHash::RowSpan, kProbeChunk> spans;
    std::vector<uint32_t> sel;
    std::vector<uint32_t> out_rows;
    for (size_t base = 0; base < state.tuples.size(); base += kProbeChunk) {
      const size_t n = std::min(kProbeChunk, state.tuples.size() - base);
      for (size_t i = 0; i < n; ++i) {
        valid[i] = PackProbeKey(*new_column, *bound_column, probe_col[base + i],
                                &keys[i])
                       ? 1
                       : 0;
      }
      hash->ProbeBatch(keys.data(), valid.data(), n, spans.data());
      ++stats_.probe_batches;
      sel.clear();
      out_rows.clear();
      for (size_t i = 0; i < n; ++i) {
        for (uint32_t nr : spans[i]) {
          bool ok = true;
          for (const auto& ex : extras) {
            if (!JoinCellsEqual(*ex.bound_column,
                                state.tuples.column(ex.tuple_pos)[base + i],
                                *ex.new_column, nr)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          sel.push_back(static_cast<uint32_t>(base + i));
          out_rows.push_back(nr);
        }
      }
      joined.AppendExpanded(state.tuples, sel.data(), out_rows.data(), sel.size());
    }
    stats_.rows_joined += joined.size();
    stats_.tuples_materialized += joined.size();
    state.tuples = std::move(joined);
    if (state.tuples.size() > kMaxTupleIndex) {
      return Status::OutOfRange("intermediate result exceeds 2^32 tuples");
    }
    state.bound[next_alias] = true;
    state.bound_order.push_back(next_alias);
    ++bound_count;
  }

  // Alias index -> position in tuples.
  std::vector<size_t> alias_pos(num_aliases, 0);
  for (size_t i = 0; i < state.bound_order.size(); ++i) {
    alias_pos[state.bound_order[i]] = i;
  }

  // Same-alias equality edges (t.x = t.y) never have exactly one side
  // bound, so the bind loop above cannot pick them; apply them as post-join
  // filters over the flat buffer (nulls equal nothing, as in every join).
  for (const auto& j : query.join_predicates) {
    size_t li = *query.FindAlias(j.left.table_alias);
    size_t ri = *query.FindAlias(j.right.table_alias);
    if (li != ri) continue;
    SQUID_ASSIGN_OR_RETURN(const Column* lcol,
                           state.tables[li]->ColumnByName(j.left.attribute));
    SQUID_ASSIGN_OR_RETURN(const Column* rcol,
                           state.tables[ri]->ColumnByName(j.right.attribute));
    const std::vector<uint32_t>& trows = state.tuples.column(alias_pos[li]);
    std::vector<uint32_t> sel;
    sel.reserve(state.tuples.size());
    for (size_t t = 0; t < state.tuples.size(); ++t) {
      if (JoinCellsEqual(*lcol, trows[t], *rcol, trows[t])) {
        sel.push_back(static_cast<uint32_t>(t));
      }
    }
    state.tuples.Keep(sel.data(), sel.size());
  }

  // Column-pair inequalities (anti-join predicates), applied post-join via
  // a selection vector over the flat buffer.
  for (const auto& aj : query.anti_join_predicates) {
    auto li = query.FindAlias(aj.left.table_alias);
    auto ri = query.FindAlias(aj.right.table_alias);
    if (!li || !ri) {
      return Status::InvalidArgument("anti-join references unknown alias");
    }
    SQUID_ASSIGN_OR_RETURN(const Column* lcol,
                           state.tables[*li]->ColumnByName(aj.left.attribute));
    SQUID_ASSIGN_OR_RETURN(const Column* rcol,
                           state.tables[*ri]->ColumnByName(aj.right.attribute));
    const std::vector<uint32_t>& lrows = state.tuples.column(alias_pos[*li]);
    const std::vector<uint32_t>& rrows = state.tuples.column(alias_pos[*ri]);
    std::vector<uint32_t> sel;
    sel.reserve(state.tuples.size());
    for (size_t t = 0; t < state.tuples.size(); ++t) {
      if (!lcol->IsNull(lrows[t]) && !rcol->IsNull(rrows[t]) &&
          !JoinCellsEqual(*lcol, lrows[t], *rcol, rrows[t])) {
        sel.push_back(static_cast<uint32_t>(t));
      }
    }
    state.tuples.Keep(sel.data(), sel.size());
  }

  auto column_of = [&](const ColumnRef& ref) -> Result<std::pair<const Column*, size_t>> {
    auto alias_idx = query.FindAlias(ref.table_alias);
    if (!alias_idx) {
      return Status::InvalidArgument("unknown alias '" + ref.table_alias + "'");
    }
    SQUID_ASSIGN_OR_RETURN(const Column* col,
                           state.tables[*alias_idx]->ColumnByName(ref.attribute));
    return std::make_pair(col, alias_pos[*alias_idx]);
  };

  // Output column names.
  std::vector<std::string> names;
  names.reserve(query.select_list.size());
  for (const auto& item : query.select_list) {
    names.push_back(item.column.ToString());
  }
  ResultSet result(std::move(names));

  std::vector<std::pair<const Column*, size_t>> projections;
  for (const auto& item : query.select_list) {
    SQUID_ASSIGN_OR_RETURN(auto proj, column_of(item.column));
    projections.push_back(proj);
  }

  if (query.group_by.empty() && !query.having) {
    for (size_t t = 0; t < state.tuples.size(); ++t) {
      std::vector<Value> row;
      row.reserve(projections.size());
      for (const auto& [col, pos] : projections) {
        row.push_back(col->ValueAt(state.tuples.At(t, pos)));
      }
      result.AddRow(std::move(row));
    }
  } else {
    // Group-by (with count(*) HAVING). Projected columns must be functionally
    // dependent on the grouping key in well-formed queries; we take the first
    // tuple of each group (MySQL-style loose semantics).
    std::vector<std::pair<const Column*, size_t>> keys;
    for (const auto& g : query.group_by) {
      SQUID_ASSIGN_OR_RETURN(auto key, column_of(g));
      keys.push_back(key);
    }
    // Grouping keys are packed per column — (validity, symbol-or-bits)
    // pairs — a chunk at a time into one flat scratch block, then folded
    // into the GroupKeyTable (see exec/group_table.h).
    const size_t parts = keys.size() * 2;
    GroupKeyTable table(parts);
    std::vector<uint64_t> scratch(kProbeChunk * parts);
    for (size_t base = 0; base < state.tuples.size(); base += kProbeChunk) {
      const size_t n = std::min(kProbeChunk, state.tuples.size() - base);
      for (size_t j = 0; j < n; ++j) {
        const size_t t = base + j;
        for (size_t k = 0; k < keys.size(); ++k) {
          uint64_t packed = 0;
          bool valid = PackCellKey(*keys[k].first,
                                   state.tuples.At(t, keys[k].second), &packed);
          scratch[j * parts + 2 * k] = valid ? 1 : 0;
          scratch[j * parts + 2 * k + 1] = valid ? packed : 0;
        }
      }
      table.AddBatch(scratch.data(), n, static_cast<uint32_t>(base));
    }
    stats_.groups += table.num_groups();
    const GroupKeyTable::Group* group_list = table.groups();
    for (size_t gi = 0; gi < table.num_groups(); ++gi) {
      const GroupKeyTable::Group& g = group_list[gi];
      if (query.having) {
        Value count_val(static_cast<int64_t>(g.count));
        Value target(query.having->value);
        if (!EvalCompare(count_val, query.having->op, target)) continue;
      }
      std::vector<Value> row;
      row.reserve(projections.size());
      for (const auto& [col, pos] : projections) {
        row.push_back(col->ValueAt(state.tuples.At(g.first_tuple, pos)));
      }
      result.AddRow(std::move(row));
    }
    result.SortRows();  // group order must not leak into the output
  }

  if (query.distinct) result.Deduplicate();
  return result;
}

Result<ResultSet> ExecuteQuery(const Database& db, const Query& query) {
  Executor exec(&db);
  return exec.Execute(query);
}

Result<ResultSet> ExecuteQuery(const Database& db, const SelectQuery& query) {
  Executor exec(&db);
  return exec.ExecuteSelect(query);
}

}  // namespace squid
