#include "exec/result_set.h"

#include <algorithm>

namespace squid {

void ResultSet::SortRows() {
  std::sort(rows_.begin(), rows_.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                int c = a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return a.size() < b.size();
            });
}

std::vector<Value> ResultSet::ColumnValues(size_t col) const {
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(row[col]);
  return out;
}

}  // namespace squid
