// Engine micro-benchmarks (google-benchmark): the substrate operations the
// abduction path leans on — value comparison/hashing, index probes,
// executor joins and aggregation, inverted-index lookup, context discovery,
// and a full discovery round trip.

#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "core/context_discovery.h"
#include "core/squid.h"
#include "datagen/imdb_generator.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/tuple_buffer.h"
#include "sql/parser.h"
#include "storage/join_hash.h"

namespace squid {
namespace {

/// Dataset scale for the singleton fixture; overridable with --scale= so CI
/// can run the suite at a tiny scale.
double g_fixture_scale = 0.12;

/// Singleton fixture: the generated dataset + αDB are expensive, build once.
struct MicroFixture {
  ImdbData data;
  std::unique_ptr<AbductionReadyDb> adb;

  static MicroFixture& Get() {
    static MicroFixture* fixture = [] {
      ImdbOptions options;
      options.scale = g_fixture_scale;
      auto data = GenerateImdb(options);
      if (!data.ok()) std::abort();
      auto* f = new MicroFixture{std::move(data).value(), nullptr};
      auto adb = AbductionReadyDb::Build(*f->data.db);
      if (!adb.ok()) std::abort();
      f->adb = std::move(adb).value();
      return f;
    }();
    return *fixture;
  }
};

void BM_ValueCompare(benchmark::State& state) {
  Value a(static_cast<int64_t>(42)), b(43.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Compare(b));
  }
}
BENCHMARK(BM_ValueCompare);

void BM_ValueHashString(benchmark::State& state) {
  Value v("some moderately long string value");
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Hash());
  }
}
BENCHMARK(BM_ValueHashString);

/// A Value point lookup on the flat PK index the αDB builds on `person`
/// (the probe behind EntityRowByKey).
void BM_HashIndexProbe(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const Table* person = f.adb->database().GetTable("person").value();
  const FlatJoinHash* index = person->pk_index();
  if (index == nullptr) std::abort();
  const Column& key_column = *person->pk_column();
  int64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Lookup(key_column, Value(key)));
    key = key % 500 + 1;
  }
}
BENCHMARK(BM_HashIndexProbe);

/// An abduced query's derived-relation filter (`value = v AND count >= 2`)
/// through FilterRows: a seek into the relation's value order plus a
/// refine of the run.
void BM_ValueOrderFilter(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const PropertyDescriptor* desc = nullptr;
  for (const PropertyDescriptor& d : f.adb->schema_graph().descriptors()) {
    if (!d.hops.empty() && f.adb->Covers(d)) {
      desc = &d;
      break;
    }
  }
  if (desc == nullptr) std::abort();
  const Table* derived = f.adb->database().GetTable(desc->derived_table).value();
  const Value value = derived->ValueAt(derived->num_rows() / 2, 1);
  std::vector<BoundPredicate> preds;
  for (const Predicate& p :
       {Predicate::Compare({"d", "value"}, CompareOp::kEq, value),
        Predicate::Compare({"d", "count"}, CompareOp::kGe,
                           Value(static_cast<int64_t>(2)))}) {
    preds.push_back(BindPredicate(*derived, p).value());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterRows(*derived, preds));
  }
}
BENCHMARK(BM_ValueOrderFilter);

void BM_InvertedIndexLookup(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const std::string name = f.data.manifest.costar_a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.adb->inverted_index().Lookup(name));
  }
}
BENCHMARK(BM_InvertedIndexLookup);

void BM_InvertedIndexLookupMixedCase(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  std::string name = f.data.manifest.costar_a;
  for (char& c : name) c = (c % 2) ? StringPool::FoldChar(c) : c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.adb->inverted_index().Lookup(name));
  }
}
BENCHMARK(BM_InvertedIndexLookupMixedCase);

void BM_InvertedIndexLookupMiss(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const std::string name = "No Such Person Anywhere";
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.adb->inverted_index().Lookup(name));
  }
}
BENCHMARK(BM_InvertedIndexLookupMiss);

void BM_StringPoolFindFolded(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const StringPool& pool = *f.data.db->pool();
  const std::string name = f.data.manifest.costar_a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.FindFolded(name));
  }
}
BENCHMARK(BM_StringPoolFindFolded);

/// The repeat-join probe workload: castinfo.person_id is the FK column the
/// IMDb benchmark queries hash-join over and over. BM_JoinProbe is the
/// vectorized pipeline (FlatJoinHash + batched packed keys); the
/// *PerTupleBaseline twin is the chaining-unordered_map per-tuple probe the
/// executor used before the TupleBuffer rewrite.
void BM_JoinProbe(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const Table* castinfo = f.data.db->GetTable("castinfo").value();
  const Column& col = *castinfo->ColumnByName("person_id").value();
  std::vector<uint32_t> rows(castinfo->num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  const FlatJoinHash hash = FlatJoinHash::Build(col, rows);

  const Table* person = f.data.db->GetTable("person").value();
  constexpr size_t kChunk = 1024;
  constexpr size_t kStream = 256 * kChunk;  // rotate so probes stay cold
  std::vector<uint64_t> keys(kStream);
  std::vector<uint8_t> valid(kStream, 1);
  // Scattered probes over the full person-id range, like a real FK join.
  for (size_t i = 0; i < kStream; ++i) {
    keys[i] = (i * 2654435761u) % person->num_rows() + 1;
  }
  std::vector<FlatJoinHash::RowSpan> spans(kChunk);
  size_t matches = 0;
  size_t base = 0;
  for (auto _ : state) {
    hash.ProbeBatch(keys.data() + base, valid.data() + base, kChunk,
                    spans.data());
    for (const auto& span : spans) matches += span.size;
    benchmark::DoNotOptimize(matches);
    base = (base + kChunk) % kStream;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kChunk));
}
BENCHMARK(BM_JoinProbe);

void BM_JoinProbePerTupleBaseline(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  const Table* castinfo = f.data.db->GetTable("castinfo").value();
  const Column& col = *castinfo->ColumnByName("person_id").value();
  std::unordered_map<uint64_t, std::vector<uint32_t>> hash;
  hash.reserve(castinfo->num_rows());
  uint64_t key = 0;
  for (uint32_t r = 0; r < castinfo->num_rows(); ++r) {
    if (PackCellKey(col, r, &key)) hash[key].push_back(r);
  }

  const Table* person = f.data.db->GetTable("person").value();
  constexpr size_t kChunk = 1024;
  constexpr size_t kStream = 256 * kChunk;
  std::vector<uint64_t> keys(kStream);
  for (size_t i = 0; i < kStream; ++i) {
    keys[i] = (i * 2654435761u) % person->num_rows() + 1;
  }
  size_t matches = 0;
  size_t base = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kChunk; ++i) {
      auto it = hash.find(keys[base + i]);
      if (it != hash.end()) matches += it->second.size();
    }
    benchmark::DoNotOptimize(matches);
    base = (base + kChunk) % kStream;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kChunk));
}
BENCHMARK(BM_JoinProbePerTupleBaseline);

/// Tuple expansion: widening 4096 three-wide tuples by one join match each.
/// Columnar = TupleBuffer::AppendExpanded (flat gathers); the baseline
/// copies one heap vector per tuple, as the old executor did.
void BM_TupleExpand(benchmark::State& state) {
  constexpr size_t kTuples = 4096;
  std::vector<uint32_t> ids(kTuples);
  std::iota(ids.begin(), ids.end(), 0u);
  TupleBuffer src;
  src.InitSingle(ids);
  std::vector<uint32_t> sel(kTuples);
  std::iota(sel.begin(), sel.end(), 0u);
  for (int widen = 0; widen < 2; ++widen) {  // three columns total
    TupleBuffer next;
    next.InitEmpty(src.width() + 1, kTuples);
    next.AppendExpanded(src, sel.data(), ids.data(), kTuples);
    src = std::move(next);
  }
  for (auto _ : state) {
    TupleBuffer out;
    out.InitEmpty(src.width() + 1, kTuples);
    out.AppendExpanded(src, sel.data(), ids.data(), kTuples);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kTuples));
}
BENCHMARK(BM_TupleExpand);

void BM_TupleExpandPerTupleBaseline(benchmark::State& state) {
  constexpr size_t kTuples = 4096;
  std::vector<std::vector<uint32_t>> src(kTuples,
                                         std::vector<uint32_t>{1, 2, 3});
  for (auto _ : state) {
    std::vector<std::vector<uint32_t>> out;
    out.reserve(kTuples);
    for (const auto& t : src) {
      auto nt = t;
      nt.push_back(7);
      out.push_back(std::move(nt));
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kTuples));
}
BENCHMARK(BM_TupleExpandPerTupleBaseline);

void BM_ExecutorSPJ(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  auto query = ParseQuery(
                   "SELECT DISTINCT p.name FROM person p, castinfo c, movie m "
                   "WHERE c.person_id = p.id AND c.movie_id = m.id AND "
                   "m.year BETWEEN 2000 AND 2005")
                   .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteQuery(*f.data.db, query));
  }
}
BENCHMARK(BM_ExecutorSPJ);

void BM_ExecutorGroupByHaving(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  auto query = ParseQuery(
                   "SELECT p.name FROM person p, castinfo c WHERE "
                   "c.person_id = p.id GROUP BY p.id HAVING count(*) >= 10")
                   .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecuteQuery(*f.data.db, query));
  }
}
BENCHMARK(BM_ExecutorGroupByHaving);

void BM_ContextDiscovery(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  SquidConfig config;
  std::vector<Value> keys = {Value(static_cast<int64_t>(1)),
                             Value(static_cast<int64_t>(2)),
                             Value(static_cast<int64_t>(3))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverContexts(*f.adb, "person", keys, config));
  }
}
BENCHMARK(BM_ContextDiscovery);

void BM_EndToEndDiscover(benchmark::State& state) {
  auto& f = MicroFixture::Get();
  Squid squid(f.adb.get());
  std::vector<std::string> examples = {f.data.manifest.costar_a,
                                       f.data.manifest.costar_b};
  for (auto _ : state) {
    benchmark::DoNotOptimize(squid.Discover(examples));
  }
}
BENCHMARK(BM_EndToEndDiscover);

}  // namespace
}  // namespace squid

/// Custom main: supports --scale=<s> (fixture dataset scale; CI uses a tiny
/// one) and --json=<path> (mapped onto google-benchmark's JSON reporter, so
/// all bench binaries share one flag). --benchmark_* flags pass through;
/// other figure-bench flags (e.g. --runs=, --threads= from run_benches.sh's
/// SQUID_BENCH_ARGS) are ignored rather than rejected.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::vector<std::string> storage;  // keeps rewritten flags alive
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      storage.push_back(std::string("--benchmark_out=") + (argv[i] + 7));
      storage.push_back("--benchmark_out_format=json");
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      squid::g_fixture_scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      args.push_back(argv[i]);
    }
  }
  for (std::string& s : storage) args.push_back(s.data());
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
