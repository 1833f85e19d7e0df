#ifndef SQUID_TESTS_TEST_UTIL_H_
#define SQUID_TESTS_TEST_UTIL_H_

/// \file test_util.h
/// \brief Shared fixtures: the paper's Example 1.1 database (academics with
/// research interests) and the Fig. 5 movie excerpt (persons, movies,
/// genres), plus small assertion helpers.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exec/result_set.h"
#include "storage/database.h"

namespace squid {
namespace testing {

/// Example 1.1: academics(id, name) with research interests attached via the
/// property-link table research(id, aid, interest_id) -> interest(id, name).
/// Dan Suciu / Sam Madden analogues share interest "data management".
std::unique_ptr<Database> MakeAcademicsDb();

/// Fig. 5 excerpt: person / movie entities, castinfo association, genre
/// dimension via movietogenre. Carrey-like person appears in 3 comedies.
std::unique_ptr<Database> MakeMoviesDb();

/// Column 0 of `rs` as a sorted vector of strings.
std::vector<std::string> NamesOf(const ResultSet& rs);

/// Convenience set construction.
std::set<std::string> NameSet(const ResultSet& rs);

/// One cell as exact set semantics compare it, written without the
/// executor's packed keys: the type, then the number's bits (int64 as is,
/// doubles through PackedDoubleBits, so -0.0 is 0.0) or the string's bytes.
/// Every NULL has one key. Ordered, so rows of keys go into std::set.
using CellKey = std::tuple<int, uint64_t, std::string>;
CellKey CellKeyOf(const Value& v);
std::vector<CellKey> RowKeyOf(const std::vector<Value>& row);
/// The row's cells as RowKeyOf gives them, but with each double's own bits,
/// so -0.0 and 0.0 differ: for asserting two results are identical.
std::vector<CellKey> ExactRowOf(const std::vector<Value>& row);

/// Asserts (via gtest EXPECT) that two tables have identical schema, row
/// count, cell values, and — for string columns — identical dictionary
/// symbols. Used by the serial-vs-parallel determinism tests: the builds
/// must agree not just on strings but on symbol assignment.
void ExpectTablesIdentical(const Table& a, const Table& b);

/// Asserts that two databases contain the same relations with identical
/// contents (see ExpectTablesIdentical).
void ExpectDatabasesIdentical(const Database& a, const Database& b);

}  // namespace testing
}  // namespace squid

#endif  // SQUID_TESTS_TEST_UTIL_H_
