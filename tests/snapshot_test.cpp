// Snapshot tests: round-trip bit-identity (save -> load -> compare down to
// dictionary symbols, plus save(load(save(x))) == save(x) byte equality and
// build-thread-count byte equality), Discover-answer parity between a fresh
// and a snapshot-loaded αDB, and a corruption battery — every malformed
// container (bad magic, wrong version, flipped bytes, truncation,
// out-of-range or misaligned directory entries) must fail with a clean
// Status error, never UB. The suite carries the ctest label `snapshot` and
// runs under the TSan and ASan/UBSan CI jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "adb/adb_snapshot.h"
#include "common/rng.h"
#include "core/squid.h"
#include "datagen/dblp_generator.h"
#include "datagen/imdb_generator.h"
#include "eval/sampler.h"
#include "sql/printer.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "workloads/benchmark_query.h"
#include "workloads/imdb_queries.h"

namespace squid {
namespace {

using testing::ExpectDatabasesIdentical;
using testing::MakeAcademicsDb;
using testing::MakeMoviesDb;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "squid_snapshot_" + name;
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  if (!bytes.empty()) in.read(reinterpret_cast<char*>(bytes.data()), bytes.size());
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t LoadU64(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b.data() + off, 8);
  return v;
}

void StoreU64(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  std::memcpy(b->data() + off, &v, 8);
}

void StoreU32(std::vector<uint8_t>* b, size_t off, uint32_t v) {
  std::memcpy(b->data() + off, &v, 4);
}

/// Re-stamps the header checksum after deliberate header edits, so the test
/// reaches the validation rule it targets instead of tripping the checksum.
void RestampHeader(std::vector<uint8_t>* b) {
  StoreU64(b, kSnapshotHeaderChecksumOffset,
           SnapshotChecksum(b->data(), kSnapshotHeaderChecksumOffset));
}

/// Re-stamps the directory checksum (and the header checksum guarding it)
/// after deliberate directory-entry edits.
void RestampDirectory(std::vector<uint8_t>* b) {
  uint64_t dir_offset = LoadU64(*b, kSnapshotDirOffsetOffset);
  StoreU64(b, kSnapshotDirChecksumOffset,
           SnapshotChecksum(b->data() + dir_offset, b->size() - dir_offset));
  RestampHeader(b);
}

/// Same bit-for-bit result key the serve parity tests use.
std::string Fingerprint(const Result<AbducedQuery>& r) {
  if (!r.ok()) return "err:" + r.status().ToString();
  const AbducedQuery& q = r.value();
  std::string fp = "ok:" + q.entity_relation + "." + q.projection_attr;
  fp += "|" + ToSql(q.adb_query) + "|" + ToSql(q.original_query);
  char posterior[64];
  std::snprintf(posterior, sizeof(posterior), "|%.17g", q.log_posterior);
  fp += posterior;
  fp += "|filters=" + std::to_string(q.NumIncludedFilters()) + "/" +
        std::to_string(q.filters.size());
  for (const Value& k : q.entity_keys) fp += "|" + k.ToString();
  return fp;
}

// ---------- extent writer/reader primitives ----------

TEST(ExtentIoTest, ScalarsStringsAndArraysRoundTrip) {
  ExtentWriter w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(1ull << 63);
  w.I64(-42);
  w.F64(2.5);
  w.Str("hello, snapshot");
  w.Str("");
  std::vector<int64_t> ints = {1, -2, 3};
  std::vector<double> doubles = {0.5, -1.25};
  w.Array(ints);
  w.Array(doubles);

  ExtentReader r(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(r.U8().value(), 7);
  EXPECT_EQ(r.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().value(), 1ull << 63);
  EXPECT_EQ(r.I64().value(), -42);
  EXPECT_EQ(r.F64().value(), 2.5);
  EXPECT_EQ(r.Str().value(), "hello, snapshot");
  EXPECT_EQ(r.Str().value(), "");
  std::vector<int64_t> ints_in;
  std::vector<double> doubles_in;
  ASSERT_TRUE(r.Array(&ints_in).ok());
  ASSERT_TRUE(r.Array(&doubles_in).ok());
  EXPECT_EQ(ints_in, ints);
  EXPECT_EQ(doubles_in, doubles);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ExtentIoTest, ReaderRejectsShortPayloads) {
  ExtentWriter w;
  w.U32(5);  // claims a 5-byte string follows; write only 2 bytes
  w.U8('h');
  w.U8('i');
  ExtentReader r(w.bytes().data(), w.bytes().size());
  auto s = r.Str();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCorruption);

  ExtentReader empty(nullptr, 0);
  EXPECT_FALSE(empty.U64().ok());
}

TEST(ExtentIoTest, ReaderRejectsOverflowingArrayCounts) {
  // A hostile count that would overflow count * sizeof(T) must be rejected
  // before any allocation.
  ExtentWriter w;
  w.U64(0xFFFFFFFFFFFFFFFFull);
  ExtentReader r(w.bytes().data(), w.bytes().size());
  std::vector<uint64_t> out;
  Status s = r.Array(&out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_TRUE(out.empty());
}

TEST(ExtentIoTest, ContainerRoundTripsThroughFromBytes) {
  SnapshotWriter writer;
  ExtentWriter* a = writer.AddExtent(ExtentType::kManifest);
  a->Str("manifest payload");
  ExtentWriter* b = writer.AddExtent(ExtentType::kStringPool);
  b->U64(99);
  std::vector<uint8_t> image = writer.Serialize();
  EXPECT_EQ(image.size() % kSnapshotAlignment, 0u);

  auto file = SnapshotFile::FromBytes(image);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value().format_version(), kSnapshotFormatVersion);
  EXPECT_EQ(file.value().file_bytes(), image.size());
  ASSERT_EQ(file.value().extents().size(), 2u);
  auto manifest = file.value().Extent(ExtentType::kManifest);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().Str().value(), "manifest payload");
  auto pool = file.value().Extent(ExtentType::kStringPool);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool.value().U64().value(), 99u);
  // No kSchemas extent in this image.
  EXPECT_FALSE(file.value().Extent(ExtentType::kSchemas).ok());
}

// ---------- round-trip bit-identity ----------

struct RoundTripCase {
  const char* dataset;
  double scale;
};

class SnapshotRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {
 protected:
  static std::unique_ptr<Database> Generate(const RoundTripCase& c) {
    if (std::string(c.dataset) == "imdb") {
      ImdbOptions options;
      options.scale = c.scale;
      auto data = GenerateImdb(options);
      EXPECT_TRUE(data.ok()) << data.status().ToString();
      return std::move(data.value().db);
    }
    DblpOptions options;
    options.scale = c.scale;
    auto data = GenerateDblp(options);
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    return std::move(data.value().db);
  }
};

TEST_P(SnapshotRoundTripTest, SaveLoadIsIdenticalDownToSymbols) {
  const RoundTripCase c = GetParam();
  std::unique_ptr<Database> db = Generate(c);
  ASSERT_NE(db, nullptr);

  // Build the same αDB serially and with 8 workers; their snapshots must be
  // byte-identical (snapshot bytes are a pure function of the logical αDB,
  // and the build itself is thread-count deterministic).
  AdbOptions serial;
  serial.threads = 1;
  auto adb1 = AbductionReadyDb::Build(*db, serial);
  ASSERT_TRUE(adb1.ok()) << adb1.status().ToString();
  AdbOptions parallel;
  parallel.threads = 8;
  auto adb8 = AbductionReadyDb::Build(*db, parallel);
  ASSERT_TRUE(adb8.ok()) << adb8.status().ToString();

  const std::string tag = std::string(c.dataset) + std::to_string(c.scale);
  const std::string path1 = TempPath(tag + "_t1.sqsnap");
  const std::string path8 = TempPath(tag + "_t8.sqsnap");
  ASSERT_TRUE(adb1.value()->SaveSnapshot(path1).ok());
  ASSERT_TRUE(adb8.value()->SaveSnapshot(path8).ok());
  const std::vector<uint8_t> bytes1 = ReadBytes(path1);
  EXPECT_EQ(bytes1, ReadBytes(path8))
      << "snapshot bytes differ between 1- and 8-thread builds";

  auto loaded = AbductionReadyDb::LoadSnapshot(path1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Database identity down to dictionary symbols (ExpectTablesIdentical
  // compares SymbolAt for every string cell).
  ExpectDatabasesIdentical(adb1.value()->database(), loaded.value()->database());

  // Stable report fields survive; volatile ones are reset.
  const AdbReport& fresh = adb1.value()->report();
  const AdbReport& restored = loaded.value()->report();
  EXPECT_EQ(restored.num_descriptors, fresh.num_descriptors);
  EXPECT_EQ(restored.num_derived_relations, fresh.num_derived_relations);
  EXPECT_EQ(restored.derived_rows, fresh.derived_rows);
  EXPECT_EQ(restored.base_rows, fresh.base_rows);
  EXPECT_EQ(restored.derived_bytes, fresh.derived_bytes);
  // base_bytes is volatile (pool allocation history) — recomputed on load,
  // so only sanity-check it.
  EXPECT_GT(restored.base_bytes, 0u);
  EXPECT_EQ(restored.build_seconds, 0.0);
  EXPECT_EQ(restored.schema_graph_s, 0.0);
  EXPECT_EQ(restored.pk_index_s, 0.0);
  EXPECT_EQ(restored.adjacency_s, 0.0);
  EXPECT_EQ(restored.descriptors_s, 0.0);
  EXPECT_EQ(restored.inverted_index_s, 0.0);
  EXPECT_EQ(restored.threads_used, 1u);

  // save(load(save(x))) == save(x): re-serializing the loaded αDB
  // reproduces the file byte for byte.
  const std::string resaved = TempPath(tag + "_resave.sqsnap");
  ASSERT_TRUE(loaded.value()->SaveSnapshot(resaved).ok());
  EXPECT_EQ(bytes1, ReadBytes(resaved))
      << "re-serialized snapshot differs from its source";

  std::remove(path1.c_str());
  std::remove(path8.c_str());
  std::remove(resaved.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ImdbAndDblpAtTwoScales, SnapshotRoundTripTest,
    ::testing::Values(RoundTripCase{"imdb", 0.1}, RoundTripCase{"imdb", 0.2},
                      RoundTripCase{"dblp", 0.15}, RoundTripCase{"dblp", 0.3}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return std::string(info.param.dataset) + "_scale" +
             std::to_string(static_cast<int>(info.param.scale * 100));
    });

// ---------- inverted-index byte accounting ----------

// index_bytes is a function of the indexed content alone, so an αDB booted
// from a snapshot reports exactly what its build reported.
TEST(SnapshotIndexBytesTest, EqualAfterBuildAndAfterLoad) {
  ImdbOptions gen;
  gen.scale = 0.1;
  auto data = GenerateImdb(gen);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto built = AbductionReadyDb::Build(*data.value().db);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = TempPath("index_bytes.sqsnap");
  ASSERT_TRUE(built.value()->SaveSnapshot(path).ok());
  auto loaded = AbductionReadyDb::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const InvertedColumnIndex& index = built.value()->inverted_index();
  EXPECT_GT(index.ApproxBytes(), index.NumPostings() * sizeof(Posting));
  EXPECT_EQ(built.value()->report().index_bytes, index.ApproxBytes());
  EXPECT_EQ(loaded.value()->inverted_index().ApproxBytes(), index.ApproxBytes());
  EXPECT_EQ(loaded.value()->report().index_bytes,
            built.value()->report().index_bytes);
  std::remove(path.c_str());
}

// ---------- fixture-database round-trip + Discover parity ----------

class SnapshotFixtureTest : public ::testing::Test {
 protected:
  /// Builds, snapshots, reloads, and checks Discover parity on a fixture db.
  static void CheckParity(const Database& db, const std::string& name,
                          const std::vector<std::vector<std::string>>& workload) {
    auto fresh = AbductionReadyDb::Build(db);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const std::string path = TempPath(name + ".sqsnap");
    ASSERT_TRUE(fresh.value()->SaveSnapshot(path).ok());

    // Load twice: once mmapped, once streamed — identical either way.
    for (bool use_mmap : {true, false}) {
      AdbSnapshotOptions options;
      options.use_mmap = use_mmap;
      auto loaded = AbductionReadyDb::LoadSnapshot(path, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectDatabasesIdentical(fresh.value()->database(),
                               loaded.value()->database());
      Squid fresh_squid(fresh.value().get());
      Squid loaded_squid(loaded.value().get());
      for (const auto& examples : workload) {
        EXPECT_EQ(Fingerprint(loaded_squid.Discover(examples)),
                  Fingerprint(fresh_squid.Discover(examples)))
            << name << " mmap=" << use_mmap;
      }
    }
    std::remove(path.c_str());
  }
};

TEST_F(SnapshotFixtureTest, MoviesDiscoverParityLoadedVsFresh) {
  auto db = MakeMoviesDb();
  CheckParity(*db, "movies",
              {{"Jim Carris", "Ewan McGregg"},
               {"Toni Cruse", "Emma Stone"},
               {"Comedy", "Drama"}});
}

TEST_F(SnapshotFixtureTest, AcademicsDiscoverParityLoadedVsFresh) {
  auto db = MakeAcademicsDb();
  CheckParity(*db, "academics", {{"Dan Susic", "Sam Madsen"}});
}

// ---------- capped αDB ----------

// max_derived_rows leaves each descriptor it skips in the schema graph with
// an empty record. Discover must skip that slot, not fail every candidate
// on it — on the built αDB and on one booted from its snapshot alike.
TEST(SnapshotCappedTest, DiscoverSucceedsOnCappedAdbBuiltAndReloaded) {
  ImdbOptions gen;
  gen.scale = 0.1;
  auto data = GenerateImdb(gen);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const Database& db = *data.value().db;
  auto full = AbductionReadyDb::Build(db);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  AdbOptions options;
  options.max_derived_rows = 5000;
  auto capped = AbductionReadyDb::Build(db, options);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  ASSERT_LT(capped.value()->report().num_derived_relations,
            full.value()->report().num_derived_relations)
      << "the cap skipped nothing; the test would not exercise empty records";
  size_t skipped = 0;
  for (const PropertyDescriptor& desc : capped.value()->schema_graph().descriptors()) {
    if (capped.value()->Covers(desc)) continue;
    ++skipped;
    EXPECT_FALSE(capped.value()->StatsFor(desc).ok()) << desc.id;
    EXPECT_FALSE(capped.value()->DerivedValues(desc, Value(int64_t{1})).ok()) << desc.id;
  }
  EXPECT_GT(skipped, 0u);

  const std::string path = TempPath("capped.sqsnap");
  ASSERT_TRUE(capped.value()->SaveSnapshot(path).ok());
  auto loaded = AbductionReadyDb::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  Squid capped_squid(capped.value().get());
  Squid loaded_squid(loaded.value().get());
  size_t sets = 0;
  for (const BenchmarkQuery& query : ImdbBenchmarkQueries(data.value().manifest)) {
    auto truth = GroundTruth(db, query);
    ASSERT_TRUE(truth.ok()) << query.id;
    Rng rng(17);
    const std::vector<std::string> examples = SampleExamples(truth.value(), 5, &rng);
    if (examples.empty()) continue;
    ++sets;
    auto direct = capped_squid.Discover(examples);
    EXPECT_TRUE(direct.ok()) << query.id << ": " << direct.status().ToString();
    EXPECT_EQ(Fingerprint(loaded_squid.Discover(examples)), Fingerprint(direct))
        << query.id;
  }
  EXPECT_GE(sets, 10u);
}

// ---------- manifest peek ----------

TEST(SnapshotInfoTest, DescribesFileWithoutLoadingIt) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const std::string path = TempPath("info.sqsnap");
  ASSERT_TRUE(adb.value()->SaveSnapshot(path).ok());

  auto info = ReadAdbSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info.value().file_bytes, ReadBytes(path).size());
  EXPECT_EQ(info.value().num_extents, 7u);
  EXPECT_EQ(info.value().database_name, adb.value()->database().name());
  EXPECT_GT(info.value().pool_entries, 0u);
  EXPECT_EQ(info.value().tables.size(),
            adb.value()->database().TableNames().size());
  size_t derived = 0;
  uint64_t rows = 0;
  for (const auto& t : info.value().tables) {
    if (t.derived) ++derived;
    rows += t.rows;
  }
  EXPECT_EQ(derived, adb.value()->report().num_derived_relations);
  EXPECT_EQ(rows, adb.value()->report().base_rows +
                      adb.value()->report().derived_rows);

  EXPECT_FALSE(ReadAdbSnapshotInfo(path + ".does-not-exist").ok());
  std::remove(path.c_str());
}

// ---------- corruption battery ----------

/// One tiny movies-fixture snapshot shared by every corruption case.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = MakeMoviesDb();
    auto adb = AbductionReadyDb::Build(*db);
    ASSERT_TRUE(adb.ok()) << adb.status().ToString();
    const std::string path = TempPath("corruption_base.sqsnap");
    ASSERT_TRUE(adb.value()->SaveSnapshot(path).ok());
    bytes_ = new std::vector<uint8_t>(ReadBytes(path));
    std::remove(path.c_str());
    ASSERT_GT(bytes_->size(), kSnapshotHeaderBytes);
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }

  /// Writes `bytes` to a temp file and runs the full untrusted load path.
  static Status TryLoad(const std::vector<uint8_t>& bytes,
                        const std::string& name) {
    const std::string path = TempPath("corrupt_" + name + ".sqsnap");
    WriteBytes(path, bytes);
    auto loaded = AbductionReadyDb::LoadSnapshot(path);
    std::remove(path.c_str());
    return loaded.ok() ? Status::OK() : loaded.status();
  }

  static std::vector<uint8_t>* bytes_;
};
std::vector<uint8_t>* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, IntactBaselineLoads) {
  EXPECT_TRUE(TryLoad(*bytes_, "intact").ok());
}

TEST_F(SnapshotCorruptionTest, MissingFileIsIoError) {
  auto loaded = AbductionReadyDb::LoadSnapshot(TempPath("no-such-file.sqsnap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SnapshotCorruptionTest, BadMagicIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  b[0] ^= 0xFF;
  RestampHeader(&b);  // reach the magic check, not the checksum check
  Status s = TryLoad(b, "magic");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotCorruptionTest, WrongVersionIsNotSupported) {
  std::vector<uint8_t> b = *bytes_;
  StoreU32(&b, kSnapshotVersionOffset, kSnapshotFormatVersion + 7);
  RestampHeader(&b);
  Status s = TryLoad(b, "version");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
}

TEST_F(SnapshotCorruptionTest, ForeignByteOrderIsNotSupported) {
  std::vector<uint8_t> b = *bytes_;
  StoreU64(&b, kSnapshotByteOrderOffset, 0xEFCDAB8967452301ull);  // byteswapped
  RestampHeader(&b);
  Status s = TryLoad(b, "byteorder");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
}

TEST_F(SnapshotCorruptionTest, FlippedHeaderChecksumByteIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  b[kSnapshotHeaderChecksumOffset] ^= 0x01;
  Status s = TryLoad(b, "header_checksum");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, FlippedExtentPayloadByteIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  b[kSnapshotHeaderBytes + 5] ^= 0x40;  // inside the first extent
  Status s = TryLoad(b, "payload");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotCorruptionTest, FlippedDirectoryByteIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  b[dir_offset + 8] ^= 0x02;  // first entry's offset field, no re-stamp
  Status s = TryLoad(b, "directory");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, TruncatedFileIsCorruption) {
  // Plain truncation (file_bytes mismatch) ...
  std::vector<uint8_t> b(bytes_->begin(), bytes_->end() - 100);
  Status s = TryLoad(b, "truncated");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);

  // ... and truncation with a matching, re-stamped header (directory region
  // no longer tiles / parses).
  StoreU64(&b, kSnapshotFileBytesOffset, b.size());
  RestampHeader(&b);
  s = TryLoad(b, "truncated_restamped");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);

  // Shorter than one header.
  std::vector<uint8_t> tiny(bytes_->begin(), bytes_->begin() + 10);
  s = TryLoad(tiny, "tiny");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, OutOfRangeExtentOffsetIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  StoreU64(&b, dir_offset + 8, 1ull << 56);  // entry 0 offset: absurd
  RestampDirectory(&b);
  Status s = TryLoad(b, "extent_offset");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, OutOfRangeExtentLengthIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  StoreU64(&b, dir_offset + 16, 1ull << 56);  // entry 0 length: absurd
  RestampDirectory(&b);
  Status s = TryLoad(b, "extent_length");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, MisalignedDirectoryEntryIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  uint64_t offset0 = LoadU64(b, dir_offset + 8);
  StoreU64(&b, dir_offset + 8, offset0 + 4);  // breaks 8-byte alignment
  RestampDirectory(&b);
  Status s = TryLoad(b, "misaligned");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("misaligned"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotCorruptionTest, UnknownExtentTypeIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  StoreU32(&b, dir_offset, 99);  // entry 0 type
  RestampDirectory(&b);
  Status s = TryLoad(b, "extent_type");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, NonZeroReservedFieldIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  StoreU32(&b, dir_offset + 4, 1);  // entry 0 reserved
  RestampDirectory(&b);
  Status s = TryLoad(b, "reserved");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageIsCorruption) {
  std::vector<uint8_t> b = *bytes_;
  b.insert(b.end(), 32, uint8_t{0xAB});
  Status s = TryLoad(b, "trailing");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, SwappedExtentTypeFailsCleanly) {
  // Retyping an intact extent leaves every checksum valid; the loader must
  // still fail (duplicate extent of one type, none of another).
  std::vector<uint8_t> b = *bytes_;
  uint64_t dir_offset = LoadU64(b, kSnapshotDirOffsetOffset);
  StoreU32(&b, dir_offset, static_cast<uint32_t>(ExtentType::kStringPool));
  RestampDirectory(&b);
  Status s = TryLoad(b, "retyped");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

// Every byte of the file is covered by exactly one FNV-1a checksum, so ANY
// single-bit flip anywhere must yield a clean error — and must never crash
// (this suite runs under TSan and ASan/UBSan in CI).
TEST_F(SnapshotCorruptionTest, SeededFuzzSingleBitFlipsNeverCrash) {
  Rng rng(20260808);
  constexpr int kFlips = 250;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<uint8_t> b = *bytes_;
    size_t offset = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(b.size()) - 1));
    uint8_t bit = static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    b[offset] ^= bit;
    Status s = TryLoad(b, "fuzz");
    EXPECT_FALSE(s.ok()) << "flip of bit " << int(bit) << " at offset "
                         << offset << " went undetected";
  }
}

TEST_F(SnapshotCorruptionTest, SeededFuzzTruncationsNeverCrash) {
  Rng rng(424242);
  for (int i = 0; i < 40; ++i) {
    size_t keep = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes_->size()) - 1));
    std::vector<uint8_t> b(bytes_->begin(), bytes_->begin() + keep);
    Status s = TryLoad(b, "fuzz_trunc");
    EXPECT_FALSE(s.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

/// Re-serializes `bytes` with `patch` applied to the payload of the extent
/// of type `type`. Every checksum comes out valid, so the load reaches the
/// payload's own validation.
std::vector<uint8_t> PatchExtent(const std::vector<uint8_t>& bytes, ExtentType type,
                                 const std::function<void(std::vector<uint8_t>*)>& patch) {
  auto file = SnapshotFile::FromBytes(bytes);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  SnapshotWriter writer;
  for (const SnapshotFile::ExtentInfo& info : file.value().extents()) {
    std::vector<uint8_t> payload(bytes.begin() + static_cast<ptrdiff_t>(info.offset),
                                 bytes.begin() +
                                     static_cast<ptrdiff_t>(info.offset + info.length));
    if (info.type == type) patch(&payload);
    ExtentWriter* out = writer.AddExtent(info.type);
    for (uint8_t b : payload) out->U8(b);
  }
  return writer.Serialize();
}

/// Replaces every length-prefixed occurrence of `from` in `payload` by `to`
/// (same length, so no offset moves); returns the number replaced.
size_t ReplaceStr(std::vector<uint8_t>* payload, const std::string& from,
                  const std::string& to) {
  std::string needle(4, '\0');
  const uint32_t len = static_cast<uint32_t>(from.size());
  std::memcpy(needle.data(), &len, 4);
  needle += from;
  size_t n = 0;
  auto it = payload->begin();
  while ((it = std::search(it, payload->end(), needle.begin(), needle.end())) !=
         payload->end()) {
    std::copy(to.begin(), to.end(), it + 4);
    it += static_cast<ptrdiff_t>(needle.size());
    ++n;
  }
  return n;
}

TEST_F(SnapshotCorruptionTest, RepatchedIntactSnapshotLoads) {
  // The re-serialization alone must not disturb a load.
  auto same = PatchExtent(*bytes_, ExtentType::kSchemas, [](std::vector<uint8_t>*) {});
  EXPECT_TRUE(TryLoad(same, "repatched").ok());
}

TEST_F(SnapshotCorruptionTest, DerivedRelationWithoutValueColumnIsCorruption) {
  size_t renamed = 0;
  auto b = PatchExtent(*bytes_, ExtentType::kSchemas, [&](std::vector<uint8_t>* p) {
    renamed = ReplaceStr(p, "value", "valuX");
  });
  ASSERT_GT(renamed, 0u);
  Status s = TryLoad(b, "no_value_column");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("value"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotCorruptionTest, DerivedRelationWithMistypedCountIsCorruption) {
  // The count column's type byte follows its name in the schema. Whichever
  // check sees the mismatch first (table data against its schema, the
  // totals, or the record's own column check), the load must fail cleanly.
  size_t retyped = 0;
  auto b = PatchExtent(*bytes_, ExtentType::kSchemas, [&](std::vector<uint8_t>* p) {
    const std::string name = "count";
    for (size_t i = 0; i + 4 + name.size() < p->size(); ++i) {
      if (std::memcmp(p->data() + i + 4, name.data(), name.size()) != 0) continue;
      uint32_t len;
      std::memcpy(&len, p->data() + i, 4);
      uint8_t& type = (*p)[i + 4 + name.size()];
      if (len != name.size() || type != static_cast<uint8_t>(ValueType::kInt64)) continue;
      type = static_cast<uint8_t>(ValueType::kDouble);
      ++retyped;
    }
  });
  ASSERT_GT(retyped, 0u);
  Status s = TryLoad(b, "mistyped_count");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

// ---------- derived-relation layout ----------

/// Replaces `from`'s bytes in `payload` with `to`'s (same length) when they
/// occur exactly once; returns the number of occurrences.
template <typename T>
size_t ReplaceUniqueArray(std::vector<uint8_t>* payload, const std::vector<T>& from,
                          const std::vector<T>& to) {
  const auto* f = reinterpret_cast<const uint8_t*>(from.data());
  const size_t len = from.size() * sizeof(T);
  size_t found = 0;
  auto hit = payload->end();
  for (auto it = payload->begin();
       (it = std::search(it, payload->end(), f, f + len)) != payload->end(); ++it) {
    ++found;
    hit = it;
  }
  if (found == 1) std::memcpy(&*hit, to.data(), len);
  return found;
}

/// A person-keyed derived relation of the movies fixture whose entity_id
/// and value columns are each stored once in the snapshot's table data
/// (so patching their bytes hits this relation only), and whose first
/// entity has two rows of different values followed by a second entity.
class DerivedLayoutTest : public SnapshotCorruptionTest {
 protected:
  void SetUp() override {
    auto db = MakeMoviesDb();
    auto built = AbductionReadyDb::Build(*db);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    adb_ = std::move(built).value();
    auto file = SnapshotFile::FromBytes(*bytes_);
    ASSERT_TRUE(file.ok());
    for (const SnapshotFile::ExtentInfo& info : file.value().extents()) {
      if (info.type != ExtentType::kTableData) continue;
      table_data_.assign(bytes_->begin() + static_cast<ptrdiff_t>(info.offset),
                         bytes_->begin() + static_cast<ptrdiff_t>(info.offset + info.length));
    }
    for (const PropertyDescriptor& desc : adb_->schema_graph().descriptors()) {
      if (desc.hops.empty() || desc.entity_relation != "person") continue;
      auto table = adb_->database().GetTable(desc.derived_table);
      if (!table.ok()) continue;
      const Column* entity = table.value()->ColumnByName("entity_id").value();
      const Column* value = table.value()->ColumnByName("value").value();
      if (value->type() != ValueType::kString || table.value()->num_rows() < 3) continue;
      if (entity->Int64At(0) != entity->Int64At(1) ||
          entity->Int64At(1) == entity->Int64At(2) ||
          value->SymbolAt(0) == value->SymbolAt(1)) {
        continue;
      }
      std::vector<uint8_t> probe = table_data_;
      if (ReplaceUniqueArray(&probe, entity->ints_raw(), entity->ints_raw()) != 1 ||
          ReplaceUniqueArray(&probe, value->syms_raw(), value->syms_raw()) != 1) {
        continue;
      }
      desc_ = &desc;
      entity_ = entity;
      value_ = value;
      return;
    }
    FAIL() << "no person-keyed derived relation fits the layout cases";
  }

  /// The snapshot with the relation's entity_id or value column replaced.
  std::vector<uint8_t> WithEntityIds(const std::vector<int64_t>& ids) {
    return PatchExtent(*bytes_, ExtentType::kTableData, [&](std::vector<uint8_t>* p) {
      EXPECT_EQ(ReplaceUniqueArray(p, entity_->ints_raw(), ids), 1u);
    });
  }
  std::vector<uint8_t> WithValueSymbols(const std::vector<Symbol>& syms) {
    return PatchExtent(*bytes_, ExtentType::kTableData, [&](std::vector<uint8_t>* p) {
      EXPECT_EQ(ReplaceUniqueArray(p, value_->syms_raw(), syms), 1u);
    });
  }

  std::unique_ptr<AbductionReadyDb> adb_;
  std::vector<uint8_t> table_data_;
  const PropertyDescriptor* desc_ = nullptr;
  const Column* entity_ = nullptr;
  const Column* value_ = nullptr;
};

TEST_F(DerivedLayoutTest, ValuesOutOfOrderWithinOneEntityAreCorruption) {
  std::vector<Symbol> syms = value_->syms_raw();
  std::swap(syms[0], syms[1]);  // the first entity's two values, descending
  Status s = TryLoad(WithValueSymbols(syms), "values_out_of_order");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("out of order"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(desc_->derived_table), std::string::npos) << s.ToString();
}

TEST_F(DerivedLayoutTest, InterleavedEntitiesAreCorruption) {
  std::vector<int64_t> ids = entity_->ints_raw();
  std::swap(ids[1], ids[2]);  // A A B -> A B A: the first entity's rows split
  Status s = TryLoad(WithEntityIds(ids), "interleaved_entities");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("splits the rows of one entity"), std::string::npos)
      << s.ToString();
}

TEST_F(DerivedLayoutTest, RowsOfAnUnknownEntityAreUnreachableNotAnError) {
  // The last entity's rows get a key no person has; they stay grouped and
  // in value order, so the load succeeds and nothing reaches them.
  std::vector<int64_t> ids = entity_->ints_raw();
  const int64_t last = ids.back();
  const int64_t orphan = *std::max_element(ids.begin(), ids.end()) + 1000;
  for (int64_t& id : ids) {
    if (id == last) id = orphan;
  }
  const std::string path = TempPath("orphan_entity.sqsnap");
  WriteBytes(path, WithEntityIds(ids));
  auto loaded = AbductionReadyDb::LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const AbductionReadyDb& adb = *loaded.value();
  auto desc = adb.schema_graph().FindDescriptor(desc_->id);
  ASSERT_TRUE(desc.ok());

  auto orphaned = adb.DerivedValues(*desc.value(), Value(orphan));
  ASSERT_TRUE(orphaned.ok());
  EXPECT_TRUE(orphaned.value().empty());
  auto renamed = adb.DerivedValues(*desc.value(), Value(last));
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed.value().empty());
  EXPECT_EQ(adb.EntityTotal(*desc.value(), Value(last)), 0.0);
  // Every other entity keeps its rows.
  const Value first(entity_->Int64At(0));
  auto kept = adb.DerivedValues(*desc.value(), first);
  auto original = adb_->DerivedValues(*desc_, first);
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(kept.value(), original.value());
  EXPECT_EQ(adb.EntityTotal(*desc.value(), first), adb_->EntityTotal(*desc_, first));
}

// ---------- descriptors of another graph ----------

TEST(SnapshotForeignDescriptorTest, ForeignDescriptorsGetAStatusNeverAnIndex) {
  auto db = MakeMoviesDb();
  auto built = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = TempPath("foreign.sqsnap");
  ASSERT_TRUE(built.value()->SaveSnapshot(path).ok());
  auto loaded = AbductionReadyDb::LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const AbductionReadyDb& adb = *built.value();
  const Value key(int64_t{1});

  for (const PropertyDescriptor& own : adb.schema_graph().descriptors()) {
    // Same id and ordinal, but the loaded αDB's descriptor object.
    auto twin = loaded.value()->schema_graph().FindDescriptor(own.id);
    ASSERT_TRUE(twin.ok()) << own.id;
    ASSERT_EQ(twin.value()->ordinal, own.ordinal);
    // A detached copy, and one whose ordinal is out of range.
    PropertyDescriptor copy = own;
    PropertyDescriptor far = own;
    far.ordinal = adb.schema_graph().descriptors().size() + 1000;
    for (const PropertyDescriptor* foreign :
         std::vector<const PropertyDescriptor*>{twin.value(), &copy, &far}) {
      EXPECT_FALSE(adb.Covers(*foreign)) << own.id;
      auto stats = adb.StatsFor(*foreign);
      ASSERT_FALSE(stats.ok()) << own.id;
      EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(adb.BasicValue(*foreign, 0).ok()) << own.id;
      EXPECT_FALSE(adb.DerivedValues(*foreign, key).ok()) << own.id;
      EXPECT_EQ(adb.EntityTotal(*foreign, key), 0.0) << own.id;
    }
    // The owning αDBs resolve them, and the id lookup still works.
    EXPECT_TRUE(adb.StatsFor(own).ok()) << own.id;
    EXPECT_TRUE(loaded.value()->StatsFor(*twin.value()).ok()) << own.id;
    EXPECT_TRUE(adb.StatsFor(own.id).ok()) << own.id;
  }
}

}  // namespace
}  // namespace squid
