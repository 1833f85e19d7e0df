// End-to-end benchmark of the snapshot-booted SQuID server.
//
// One invocation runs one workload at one seed:
//
//   squid_e2e --workload <imdb_session|imdb_longtail|imdb_execute>
//             --seed <n> --seconds <s> --trace <0|1> --snapshot <path>
//
//  1. Inputs: a synthetic IMDb database at a fixed scale and the workload's
//     seeded example sets. Generating them is the workload's input, not the
//     program's work, so it is not timed.
//  2. Set-up (timed, repeated kSetupReps times, median reported as setup_s):
//     AbductionReadyDb::Build, SaveSnapshot, LoadSnapshot, SquidService (and
//     TcpServer) start, and the first accepted request. The set-ups run in a
//     child process; the serving process then frees the generated database
//     and boots its server from the last set-up's snapshot, so the heap the
//     builds leave behind does not count in rss_mb.
//  3. Output check reference: every distinct example set is answered once by
//     a serial, uncached in-process Squid::Discover and encoded as a
//     WireAnswer; every timed answer must be byte-identical to it. A set the
//     reference cannot answer counts as a failed operation. The peak
//     resident set is then reset, so rss_mb is the server's footprint while
//     it serves.
//  4. Warm-up until the context cache reaches steady state, then a closed
//     loop for --seconds with one client thread.
//  5. With --trace 1, the same run continues with a probe: real
//     TcpClient::Discover and SquidService::DiscoverSync calls, the latter
//     with the service's own per-phase tracing (SquidService::set_tracing /
//     last_trace), plus direct timings of the calls around them (ToSql,
//     frame encode/decode, ExecuteQuery), and prints the per-layer metrics
//     instead of the end-to-end ones.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// Workloads (all on one IMDb scale, one client thread, one service worker):
//  - imdb_session: TCP, a fixed window of requests in flight, cycling a fixed
//    pool of sets sampled from the 16 benchmark queries' ground truths. Every
//    context profile hits the cache, so framing, the event loop, admission,
//    merge, abduction and ToSql dominate.
//  - imdb_longtail: TCP, same loop, thousands of distinct 8-name sets drawn
//    uniformly from the person relation. The working set outgrows the 8 MiB
//    context cache, so misses, evictions, disambiguation and αDB point
//    queries dominate.
//  - imdb_execute: in process, DiscoverSync then ExecuteQuery of the αDB-form
//    query, one request at a time — the paper's full user flow, dominated by
//    the executor.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adb/abduction_ready_db.h"
#include "common/mem_arena.h"
#include "common/rng.h"
#include "core/squid.h"
#include "datagen/imdb_generator.h"
#include "eval/metrics.h"
#include "eval/sampler.h"
#include "exec/executor.h"
#include "net/frame.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/squid_service.h"
#include "sql/printer.h"
#include "workloads/benchmark_query.h"
#include "workloads/imdb_queries.h"

namespace squid {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// --- pinned configuration ----------------------------------------------------

/// IMDb scale: large enough that imdb_longtail's person profiles outgrow
/// the default 8 MiB context cache (hit rate well below 1), small enough
/// that set-up repeats several times within a run.
constexpr double kImdbScale = 0.5;
/// The database is part of the workload definition; --seed draws the traffic.
constexpr uint64_t kDatasetSeed = 42;
/// Thread counts are fixed, never "0 = hardware concurrency". The server
/// runs one worker: SquidService with threads = 1 answers each request on
/// the thread that submits it, the event loop on the socket workloads and
/// the client thread on imdb_execute. On a shared virtual machine every
/// wake-up that crosses to another virtual CPU waits for the hypervisor;
/// with two workers and their candidate fan-out the hypervisor took 16-26%
/// of the machine's CPU time during imdb_longtail runs, against 2-8% with
/// one, and throughput spread 0.56 across four runs against 0.14.
constexpr size_t kGenThreads = 2;
constexpr size_t kBuildThreads = 2;
constexpr size_t kServeThreads = 1;
constexpr size_t kQueueCapacity = 64;
constexpr size_t kCacheBytes = 8u << 20;
/// Requests kept in flight on the TCP workloads. One in flight waits on
/// two thread wake-ups per request and swings ~±15% run to run; a window
/// keeps the server busy. Far below kQueueCapacity, so nothing is shed.
constexpr size_t kWindow = 8;
/// Set-up repetitions per run; setup_s is their median (Build alone varies
/// ~±20% between repetitions).
constexpr size_t kSetupReps = 3;
/// Example-set pools: per benchmark query, one set of each size 2..7 per
/// round. Stratifying the sizes keeps fscore's seed-to-seed spread small;
/// several rounds keep the pool's mean cost per request from following the
/// seed (one round moved imdb_session's p50 by 30% between seeds).
constexpr size_t kSessionRounds = 8;
constexpr size_t kExecuteRounds = 8;
constexpr size_t kLongtailSets = 2048;
constexpr size_t kLongtailSetSize = 8;
/// Long-tail sets scored for fscore (each costs one αDB-form execution).
constexpr size_t kLongtailScored = 64;
/// The timed phase is cut into slices of kSliceSeconds, and every timed
/// metric is the median over the calm slices (see CalmSlices), so bursts of
/// interference from other tenants of the machine, which last from a
/// fraction of a second to a few seconds, do not move a run's figure.
constexpr double kSliceSeconds = 0.25;
/// A slice is calm when the hypervisor took at most this share of the
/// machine's CPU time during it: 2 of the 100 ticks four CPUs count in a
/// quarter second, with room for slices a little shorter than that.
constexpr double kCalmSteal = 0.025;

size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(seconds / kSliceSeconds)));
}

[[noreturn]] void Die(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "squid_e2e: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  std::exit(1);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Die("%s: %s", what, result.status().ToString().c_str());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die("%s: %s", what, status.ToString().c_str());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time the hypervisor has taken from this machine's CPUs, summed over
/// them (the steal column of /proc/stat).
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::array<double, 8> fields{};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& field : fields) stat >> field;
  if (!stat || cpu != "cpu") Die("cannot read the steal time from /proc/stat");
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double OnlineCpus() { return static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))); }

/// Resets the kernel's peak resident set (VmHWM) to the current one.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the peak resident set through /proc/self/clear_refs");
}

/// Peak resident set since the last ResetPeakRss (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the kernel reports KiB
    }
  }
  Die("no VmHWM in /proc/self/status");
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

// --- arguments ---------------------------------------------------------------

enum class Workload { kSession, kLongtail, kExecute };

struct Args {
  Workload workload = Workload::kSession;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string snapshot;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("unexpected argument %s", argv[i]);
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) Die("flags come in --name value pairs");
  for (const char* required : {"workload", "seed", "seconds", "trace", "snapshot"}) {
    if (flags.count(required) == 0) Die("missing --%s", required);
  }
  args.workload_name = flags["workload"];
  if (args.workload_name == "imdb_session") {
    args.workload = Workload::kSession;
  } else if (args.workload_name == "imdb_longtail") {
    args.workload = Workload::kLongtail;
  } else if (args.workload_name == "imdb_execute") {
    args.workload = Workload::kExecute;
  } else {
    Die("unknown workload %s", args.workload_name.c_str());
  }
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  args.trace = flags["trace"] == "1";
  args.snapshot = flags["snapshot"];
  return args;
}

const char* EnvOr(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "<unset>" : value;
}

void PrintConfig(const Args& args) {
  const MemConfig& mem = GlobalMemConfig();
  std::printf(
      "config: workload=%s seed=%llu seconds=%g trace=%d scale=%g dataset_seed=%llu "
      "gen_threads=%zu build_threads=%zu serve_threads=%zu queue_capacity=%zu "
      "cache_bytes=%zu window=%zu setup_reps=%zu\n",
      args.workload_name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, kImdbScale,
      static_cast<unsigned long long>(kDatasetSeed), kGenThreads, kBuildThreads,
      kServeThreads, kQueueCapacity, kCacheBytes,
      args.workload == Workload::kExecute ? size_t{1} : kWindow, kSetupReps);
  std::printf(
      "env: SQUID_METRICS=%s SQUID_HUGEPAGES=%s SQUID_PREFETCH_DISTANCE=%s "
      "SQUID_PREFETCH_WINDOW=%s SQUID_LOG_LEVEL=%s\n",
      EnvOr("SQUID_METRICS"), EnvOr("SQUID_HUGEPAGES"),
      EnvOr("SQUID_PREFETCH_DISTANCE"), EnvOr("SQUID_PREFETCH_WINDOW"),
      EnvOr("SQUID_LOG_LEVEL"));
  std::printf(
      "effective: metrics_enabled=%d hugepages=%d prefetch_distance=%zu "
      "prefetch_window=%zu\n",
      obs::MetricsEnabled() ? 1 : 0, static_cast<int>(mem.hugepages),
      mem.prefetch_distance, mem.prefetch_window);
}

// --- inputs ------------------------------------------------------------------

struct ExampleSet {
  std::vector<std::string> examples;
  /// Names the set's intent selects: its query's ground truth, or the whole
  /// person relation for long-tail sets.
  const std::unordered_set<std::string>* intended = nullptr;
};

struct Inputs {
  ImdbData data;
  /// Intended answers the sets point into (stable addresses).
  std::vector<std::unique_ptr<std::unordered_set<std::string>>> truths;
  std::vector<ExampleSet> sets;
};

/// `rounds` × one set of each size 2..7 per benchmark query, drawn from the
/// query's ground truth.
void SampleFromTruths(Inputs* in, size_t rounds, Rng* rng) {
  std::vector<std::pair<ResultSet, const std::unordered_set<std::string>*>> pools;
  for (const BenchmarkQuery& query : ImdbBenchmarkQueries(in->data.manifest)) {
    ResultSet truth = Check(GroundTruth(*in->data.db, query), "ground truth");
    if (truth.num_rows() < 2) continue;
    in->truths.push_back(
        std::make_unique<std::unordered_set<std::string>>(ToStringSet(truth)));
    pools.emplace_back(std::move(truth), in->truths.back().get());
  }
  if (pools.empty()) Die("no benchmark query has two answers");
  for (size_t round = 0; round < rounds; ++round) {
    for (const auto& [truth, intended] : pools) {
      for (size_t k = 2; k <= 7; ++k) {
        ExampleSet set;
        set.examples = SampleExamples(truth, k, rng);
        set.intended = intended;
        in->sets.push_back(std::move(set));
      }
    }
  }
}

/// kLongtailSets sets of kLongtailSetSize distinct person names, uniform over
/// the whole relation. Their intent is the relation itself.
void SampleLongtail(Inputs* in, Rng* rng) {
  const Table* person = Check(in->data.db->GetTable("person"), "person table");
  const Column* name = Check(person->ColumnByName("name"), "person.name");
  auto all = std::make_unique<std::unordered_set<std::string>>();
  for (size_t row = 0; row < person->num_rows(); ++row) {
    all->insert(name->ValueAt(row).ToString());
  }
  in->truths.push_back(std::move(all));
  while (in->sets.size() < kLongtailSets) {
    ExampleSet set;
    std::unordered_set<std::string> seen;
    for (size_t row : rng->SampleWithoutReplacement(person->num_rows(), kLongtailSetSize)) {
      std::string value = name->ValueAt(row).ToString();
      if (seen.insert(value).second) set.examples.push_back(std::move(value));
    }
    set.intended = in->truths.back().get();
    in->sets.push_back(std::move(set));
  }
}

Inputs MakeInputs(const Args& args) {
  Inputs in;
  ImdbOptions options;
  options.seed = kDatasetSeed;
  options.scale = kImdbScale;
  options.threads = kGenThreads;
  in.data = Check(GenerateImdb(options), "generate IMDb");
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(args.workload));
  switch (args.workload) {
    case Workload::kSession:
      SampleFromTruths(&in, kSessionRounds, &rng);
      break;
    case Workload::kExecute:
      SampleFromTruths(&in, kExecuteRounds, &rng);
      break;
    case Workload::kLongtail:
      SampleLongtail(&in, &rng);
      break;
  }
  return in;
}

// --- set-up ------------------------------------------------------------------

/// A snapshot-booted server. Members are destroyed in reverse order: the
/// client and socket server before the service, the service before its
/// registry and αDB.
struct Server {
  std::unique_ptr<AbductionReadyDb> adb;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<SquidService> service;
  std::unique_ptr<net::TcpServer> tcp;
  std::unique_ptr<net::TcpClient> client;
};

struct SetupTimes {
  double build_s = 0;
  double save_s = 0;
  double load_s = 0;
  double boot_s = 0;
  double total_s = 0;
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Loads the snapshot and starts the server: the service, on the socket
/// workloads the TCP server and a client connection, then the first request.
Server Boot(const std::string& snapshot, bool tcp, const std::vector<std::string>& first,
            SetupTimes* times) {
  Server server;
  const Clock::time_point t0 = Clock::now();
  server.adb = Check(AbductionReadyDb::LoadSnapshot(snapshot), "load snapshot");
  const Clock::time_point t1 = Clock::now();
  server.registry = std::make_unique<obs::MetricsRegistry>();
  ServeOptions options;
  options.threads = kServeThreads;
  options.queue_capacity = kQueueCapacity;
  options.cache_bytes = kCacheBytes;
  options.metrics = server.registry.get();
  server.service = std::make_unique<SquidService>(server.adb.get(), options);
  if (tcp) {
    server.tcp = std::make_unique<net::TcpServer>(server.service.get());
    Check(server.tcp->Start(), "start TCP server");
    server.client = std::make_unique<net::TcpClient>(
        Check(net::TcpClient::Connect("127.0.0.1", server.tcp->port()), "connect"));
    net::Reply reply = Check(server.client->Discover(first), "first request");
    if (reply.kind == net::Reply::Kind::kOverloaded) Die("first request shed");
  } else {
    (void)server.service->DiscoverSync(first);
  }
  times->load_s = Seconds(t0, t1);
  times->boot_s = Seconds(t1, Clock::now());
  return server;
}

/// One set-up, from Build on the generated database to the first accepted
/// request; the server is torn down untimed.
SetupTimes SetupOnce(const Database& db, const std::vector<std::string>& first, bool tcp,
                     const std::string& snapshot) {
  SetupTimes times;
  AdbOptions adb_options;
  adb_options.threads = kBuildThreads;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<AbductionReadyDb> built =
      Check(AbductionReadyDb::Build(db, adb_options), "build αDB");
  const Clock::time_point t1 = Clock::now();
  Check(built->SaveSnapshot(snapshot), "save snapshot");
  times.build_s = Seconds(t0, t1);
  times.save_s = Seconds(t1, Clock::now());
  built.reset();  // teardown is not set-up work
  (void)Boot(snapshot, tcp, first, &times);
  times.total_s = times.build_s + times.save_s + times.load_s + times.boot_s;
  return times;
}

/// Runs kSetupReps set-ups in a child process, which leaves the last one's
/// snapshot at `snapshot`. The heap the builds and torn-down servers leave
/// behind goes away with the child instead of staying resident next to the
/// server that is measured. Call it while the process has one thread.
std::vector<SetupTimes> TimeSetups(const Database& db, const std::vector<std::string>& first,
                                   bool tcp, const std::string& snapshot) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe: %s", std::strerror(errno));
  std::fflush(stdout);  // the child must not print the parent's buffered output again
  const pid_t pid = fork();
  if (pid < 0) Die("fork: %s", std::strerror(errno));
  if (pid == 0) {
    close(fds[0]);
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      const SetupTimes times = SetupOnce(db, first, tcp, snapshot);
      if (write(fds[1], &times, sizeof(times)) != static_cast<ssize_t>(sizeof(times))) _exit(1);
    }
    _exit(0);
  }
  close(fds[1]);
  std::vector<SetupTimes> out;
  SetupTimes times;
  while (read(fds[0], &times, sizeof(times)) == static_cast<ssize_t>(sizeof(times))) {
    out.push_back(times);
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      out.size() != kSetupReps) {
    Die("set-up process failed");
  }
  return out;
}

// --- output check ------------------------------------------------------------

struct Reference {
  /// WireAnswer of the serial, uncached Squid::Discover answer.
  net::WireAnswer wire;
  /// Rows of the executed αDB-form query (imdb_execute only).
  std::vector<std::vector<Value>> rows;
};

/// Field-wise equality, with log_posterior compared bit for bit: two answers
/// are equal exactly when their WireAnswer::Encode() bytes are, without
/// encoding either.
bool SameAnswer(const net::WireAnswer& a, const net::WireAnswer& b) {
  return a.entity_relation == b.entity_relation && a.projection_attr == b.projection_attr &&
         a.adb_sql == b.adb_sql && a.original_sql == b.original_sql &&
         std::memcmp(&a.log_posterior, &b.log_posterior, sizeof(double)) == 0 &&
         a.filters_included == b.filters_included && a.filters_total == b.filters_total &&
         a.entity_keys == b.entity_keys;
}

bool ContainsExamples(const ResultSet& rs, const std::vector<std::string>& examples) {
  std::unordered_set<std::string> names = ToStringSet(rs);
  for (const std::string& example : examples) {
    if (names.count(example) == 0) return false;
  }
  return true;
}

struct RefSummary {
  double fscore = 0;
  size_t scored = 0;
  size_t entities = 0;  // distinct entities the answers touch
  size_t not_contained = 0;
  size_t failed = 0;    // sets the reference could not answer
};

/// Answers every set serially. The sets come from the seed alone, so a set
/// the program cannot answer is a failed operation of this run; it is
/// counted in `out->failed` and left out of the timed mix, which has no
/// reference for it.
std::vector<Reference> ComputeReferences(const AbductionReadyDb& adb, Workload workload,
                                         std::vector<ExampleSet>* sets, RefSummary* out) {
  Squid squid(&adb);
  std::vector<Reference> refs;
  std::vector<ExampleSet> kept;
  std::set<std::string> entities;
  double fsum = 0;
  for (ExampleSet& set : *sets) {
    Result<AbducedQuery> abduced = squid.Discover(set.examples);
    if (!abduced.ok()) {
      ++out->failed;
      continue;
    }
    const AbducedQuery& q = abduced.value();
    Reference ref;
    ref.wire = net::WireAnswer::FromQuery(q);
    for (const Value& key : q.entity_keys) {
      entities.insert(q.entity_relation + "\x1f" + key.ToString());
    }
    if (workload != Workload::kLongtail || kept.size() < kLongtailScored) {
      ResultSet rs = Check(ExecuteQuery(adb.database(), q.adb_query), "execute reference");
      if (!ContainsExamples(rs, set.examples)) ++out->not_contained;
      fsum += ComputeMetrics(*set.intended, ToStringSet(rs)).fscore;
      ++out->scored;
      if (workload == Workload::kExecute) ref.rows = rs.rows();
    }
    refs.push_back(std::move(ref));
    kept.push_back(std::move(set));
  }
  *sets = std::move(kept);
  if (sets->empty()) Die("no example set could be answered");
  out->fscore = out->scored == 0 ? 0 : fsum / static_cast<double>(out->scored);
  out->entities = entities.size();
  std::printf("inputs: distinct_sets=%zu reference_failed=%zu entities_touched=%zu "
              "scored=%zu examples_not_in_result=%zu\n",
              sets->size(), out->failed, entities.size(), out->scored, out->not_contained);
  return refs;
}

// --- closed loops --------------------------------------------------------------

struct Counts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  // error replies and answers that fail the output check
  uint64_t shed = 0;    // overloaded replies; also failures
};

/// A slice boundary of the timed window: when the loop passed it, the
/// process CPU time then, the ok answers completed by then, and the wall and
/// CPU time the client had spent checking answers by then.
struct Mark {
  Clock::time_point at;
  double cpu_s = 0;
  uint64_t ok = 0;
  double check_s = 0;
  double check_cpu_s = 0;
  double steal_s = 0;
};

struct Timed {
  Counts counts;
  std::vector<double> latency_ms;  // ok answers in completion order, send to reply
  std::vector<Mark> marks;         // one more than the slices
  /// Client time spent on output checks that the server does not overlap
  /// (imdb_execute), left out of the slices' time and CPU.
  double check_s = 0;
  double check_cpu_s = 0;
};

/// Cuts the timed window into equal slices, marking each boundary at the
/// first completion past it.
class Slicer {
 public:
  Slicer(double seconds, size_t slices, Timed* out)
      : start_(Clock::now()),
        width_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds / static_cast<double>(slices)))),
        slices_(slices),
        out_(out) {
    out_->marks.push_back(Mark{start_, CpuSeconds(), 0, 0, 0, StealSeconds()});
  }

  /// Call after each completion; false once the window is over.
  bool Tick() {
    const size_t n = out_->marks.size();
    if (n > slices_) return false;
    const Clock::time_point now = Clock::now();
    if (now >= start_ + width_ * static_cast<int64_t>(n)) {
      out_->marks.push_back(Mark{now, CpuSeconds(), out_->counts.ok, out_->check_s,
                                 out_->check_cpu_s, StealSeconds()});
    }
    return out_->marks.size() <= slices_;
  }

 private:
  Clock::time_point start_;
  Clock::duration width_;
  size_t slices_;
  Timed* out_;
};

/// Cycles through the distinct sets in a fixed order.
class Cursor {
 public:
  explicit Cursor(std::vector<size_t> order) : order_(std::move(order)) {}
  size_t Next() {
    const size_t index = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return index;
  }

 private:
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

/// Closed loop over one connection: kWindow requests in flight, the next
/// one sent as each reply arrives, until `seconds` have passed; then the
/// requests still in flight drain, untimed.
Timed RunTcp(net::TcpClient* client, const std::vector<ExampleSet>& sets,
             const std::vector<Reference>& refs, Cursor* cursor, double seconds) {
  struct Pending {
    size_t set = 0;
    Clock::time_point sent;
  };
  Timed out;
  std::unordered_map<uint64_t, Pending> inflight;
  Slicer slicer(seconds, SliceCount(seconds), &out);
  auto send = [&] {
    const size_t index = cursor->Next();
    const Clock::time_point sent = Clock::now();
    const uint64_t id = Check(client->SendDiscover(sets[index].examples), "send");
    inflight[id] = Pending{index, sent};
    ++out.counts.attempted;
  };
  for (size_t i = 0; i < kWindow; ++i) send();
  bool open = true;
  while (!inflight.empty()) {
    net::Reply reply = Check(client->ReadReply(), "read reply");
    const Clock::time_point done = Clock::now();
    auto it = inflight.find(reply.request_id);
    if (it == inflight.end()) {
      Die("reply for unknown request %llu", static_cast<unsigned long long>(reply.request_id));
    }
    const Pending pending = it->second;
    inflight.erase(it);
    switch (reply.kind) {
      case net::Reply::Kind::kOk:
        if (SameAnswer(reply.answer, refs[pending.set].wire)) {
          ++out.counts.ok;
          out.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(done - pending.sent).count());
        } else {
          ++out.counts.failed;
        }
        break;
      case net::Reply::Kind::kOverloaded:
        ++out.counts.shed;
        break;
      default:
        ++out.counts.failed;
        break;
    }
    open = open && slicer.Tick();
    if (open) send();
  }
  return out;
}

/// The paper's user flow, one request at a time: DiscoverSync, then
/// ExecuteQuery of the αDB-form query. An answer passes when its WireAnswer
/// and its executed rows equal the reference's (whose rows were checked to
/// contain every example, Definition 2.1). The server is idle while the
/// client checks, so the check's wall and CPU time are left out of the
/// slices.
Timed RunExecute(SquidService* service, const Database& db,
                 const std::vector<ExampleSet>& sets, const std::vector<Reference>& refs,
                 Cursor* cursor, double seconds) {
  Timed out;
  Slicer slicer(seconds, SliceCount(seconds), &out);
  do {
    const size_t index = cursor->Next();
    ++out.counts.attempted;
    const Clock::time_point sent = Clock::now();
    Result<AbducedQuery> abduced = service->DiscoverSync(sets[index].examples);
    Result<ResultSet> rs = abduced.ok() ? ExecuteQuery(db, abduced.value().adb_query)
                                        : Result<ResultSet>(abduced.status());
    const Clock::time_point done = Clock::now();
    const double cpu0 = ThreadCpuSeconds();
    const bool ok = rs.ok() && rs.value().rows() == refs[index].rows &&
                    SameAnswer(net::WireAnswer::FromQuery(abduced.value()), refs[index].wire);
    out.check_cpu_s += ThreadCpuSeconds() - cpu0;
    out.check_s += std::chrono::duration<double>(Clock::now() - done).count();
    if (ok) {
      ++out.counts.ok;
      out.latency_ms.push_back(std::chrono::duration<double, std::milli>(done - sent).count());
    } else {
      ++out.counts.failed;
    }
  } while (slicer.Tick());
  return out;
}

/// The timed metrics of one slice.
struct Slice {
  double rps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double cpu_ms_per_req = 0;
  double steal = 0;  // share of the machine's CPU time stolen
};

std::vector<Slice> Slices(const Timed& t) {
  std::vector<Slice> out;
  for (size_t k = 0; k + 1 < t.marks.size(); ++k) {
    const Mark& a = t.marks[k];
    const Mark& b = t.marks[k + 1];
    const double n = std::max<double>(1, double(b.ok - a.ok));
    std::vector<double> lat(t.latency_ms.begin() + static_cast<ptrdiff_t>(a.ok),
                            t.latency_ms.begin() + static_cast<ptrdiff_t>(b.ok));
    std::sort(lat.begin(), lat.end());
    Slice s;
    const double seconds =
        std::chrono::duration<double>(b.at - a.at).count() - (b.check_s - a.check_s);
    s.rps = double(b.ok - a.ok) / seconds;
    s.p50_ms = Quantile(lat, 0.50);
    s.p90_ms = Quantile(lat, 0.90);
    s.p99_ms = Quantile(lat, 0.99);
    s.cpu_ms_per_req = ((b.cpu_s - a.cpu_s) - (b.check_cpu_s - a.check_cpu_s)) * 1e3 / n;
    s.steal = (b.steal_s - a.steal_s) /
              (OnlineCpus() * std::chrono::duration<double>(b.at - a.at).count());
    out.push_back(s);
  }
  return out;
}

/// The slices the timed metrics are taken over: those in which the
/// hypervisor took at most kCalmSteal of the machine's CPU time or, when
/// fewer than a fifth of them are that calm, the least-stolen fifth. CPU
/// stolen by other tenants of the host stalls every thread of the pipeline
/// at once, and the program has no part in it.
std::vector<Slice> CalmSlices(const std::vector<Slice>& slices) {
  std::vector<double> steal;
  for (const Slice& s : slices) steal.push_back(s.steal);
  std::sort(steal.begin(), steal.end());
  const double limit = std::max(kCalmSteal, Quantile(steal, 0.2));
  std::vector<Slice> out;
  for (const Slice& s : slices) {
    if (s.steal <= limit) out.push_back(s);
  }
  return out;
}

/// Median over slices of one field.
double SliceMedian(const std::vector<Slice>& slices, double Slice::*field) {
  std::vector<double> v;
  for (const Slice& s : slices) v.push_back(s.*field);
  return Median(v);
}

// --- cache and queue counters ----------------------------------------------------

struct CacheDelta {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  double HitRate() const {
    return hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
};

CacheDelta Delta(const ServeStats& before, const ServeStats& after) {
  return CacheDelta{after.hits - before.hits, after.misses - before.misses,
                    after.evictions - before.evictions};
}

/// The queue-wait distribution of the requests between two snapshots.
obs::HistogramSnapshot HistogramDelta(const obs::HistogramSnapshot& before,
                                      const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot out = after;
  out.count = 0;
  for (size_t i = 0; i < out.buckets.size(); ++i) {
    out.buckets[i] = after.buckets[i] - before.buckets[i];
    out.count += out.buckets[i];
  }
  out.sum = after.sum - before.sum;
  return out;
}

void AddCounts(Counts* into, const Counts& c) {
  into->attempted += c.attempted;
  into->ok += c.ok;
  into->failed += c.failed;
  into->shed += c.shed;
}

/// Warm-up: runs half-second windows until the window hit rate of the
/// context cache levels off. That fills the cache with the whole pool on
/// imdb_session and imdb_execute, and brings imdb_longtail's evictions to
/// steady state. Warm-up answers are checked like the timed ones; returns
/// their counts.
Counts WarmUp(const Args& args, Server* server, const Database& db,
              const std::vector<ExampleSet>& sets, const std::vector<Reference>& refs,
              Cursor* cursor) {
  Counts counts;
  std::printf("warmup: window hit rates");
  double previous = -1;
  for (int window = 0; window < 8; ++window) {
    const ServeStats before = server->service->stats();
    AddCounts(&counts, args.workload == Workload::kExecute
                           ? RunExecute(server->service.get(), db, sets, refs, cursor, 0.5)
                                 .counts
                           : RunTcp(server->client.get(), sets, refs, cursor, 0.5).counts);
    const double rate = Delta(before, server->service->stats()).HitRate();
    std::printf(" %.4f", rate);
    if (window >= 3 && std::fabs(rate - previous) < 0.01) break;
    previous = rate;
  }
  std::printf("\n");
  return counts;
}

// --- traced probe ----------------------------------------------------------------

/// Per-layer totals over the probed requests.
struct Probe {
  size_t requests = 0;
  Counts counts;
  double tcp_ns = 0;     // TcpClient::Discover, send to reply
  double sync_ns = 0;    // SquidService::DiscoverSync, service tracing off
  double traced_ns = 0;  // the same call with service tracing on
  /// Phase times of the traced calls, from SquidService::last_trace(),
  /// summed over the request's candidates.
  std::array<double, obs::kNumPhases> phase_ns{};
  /// Context discovery of an uncached, serial Squid::Discover (the work the
  /// context cache saves).
  double uncached_context_ns = 0;
  double to_sql_ns = 0;   // the two ToSql calls WireAnswer::FromQuery makes
  double encode_ns = 0;   // WireAnswer::FromQuery + EncodeDiscoverOkFrame
  double decode_ns = 0;   // FrameDecoder::Feed/Next + DecodeReplyFrame
  double execute_ns = 0;  // ExecuteQuery of the αDB-form query
  double rows = 0;
  DiscoverStats work;
};

template <typename F>
double TimeNs(F&& f) {
  const uint64_t t0 = NowNs();
  f();
  return double(NowNs() - t0);
}

/// One probed set: the real calls of the workload's path, each checked
/// against the reference, then the calls around the service timed directly.
void ProbeOne(Server* server, const Squid& uncached, const ExampleSet& set,
              const Reference& ref, bool tcp, bool execute, Probe* p) {
  SquidService* service = server->service.get();
  bool ok = true;
  auto same = [&](const Result<AbducedQuery>& q) {
    return q.ok() && SameAnswer(net::WireAnswer::FromQuery(q.value()), ref.wire);
  };
  Result<AbducedQuery> answer = Status::Internal("not run");
  std::vector<std::function<void()>> calls;
  calls.push_back([&] {
    p->sync_ns += TimeNs([&] { answer = service->DiscoverSync(set.examples); });
    ok = ok && same(answer);
  });
  calls.push_back([&] {
    service->set_tracing(true);
    Result<AbducedQuery> traced = Status::Internal("not run");
    p->traced_ns += TimeNs([&] { traced = service->DiscoverSync(set.examples); });
    service->set_tracing(false);
    const std::shared_ptr<const obs::RequestTrace> trace = service->last_trace();
    if (trace == nullptr) Die("traced request left no trace");
    for (int i = 0; i < obs::kNumPhases; ++i) {
      p->phase_ns[static_cast<size_t>(i)] += double(trace->PhaseNs(static_cast<obs::Phase>(i)));
    }
    ok = ok && same(traced);
  });
  if (tcp) {
    calls.push_back([&] {
      Result<net::Reply> reply = Status::Internal("not run");
      p->tcp_ns += TimeNs([&] { reply = server->client->Discover(set.examples); });
      ok = ok && reply.ok() && reply.value().kind == net::Reply::Kind::kOk &&
           SameAnswer(reply.value().answer, ref.wire);
    });
  }
  // The first call of a set may miss the cache and the later ones hit, so
  // the calls take turns going first.
  for (size_t i = 0; i < calls.size(); ++i) calls[(p->requests + i) % calls.size()]();

  if (answer.ok()) {
    const AbducedQuery& q = answer.value();
    p->work.candidate_base_queries += q.stats.candidate_base_queries;
    p->work.candidates_abduced += q.stats.candidates_abduced;
    p->work.entity_row_lookups += q.stats.entity_row_lookups;
    p->work.entity_row_lookups_saved += q.stats.entity_row_lookups_saved;
    if (tcp) {
      p->to_sql_ns += TimeNs([&] {
        (void)ToSql(q.adb_query);
        (void)ToSql(q.original_query);
      });
      std::string frame;
      p->encode_ns += TimeNs([&] {
        frame = net::EncodeDiscoverOkFrame(p->requests + 1, net::WireAnswer::FromQuery(q));
      });
      Result<net::Reply> reply = Status::Internal("not decoded");
      p->decode_ns += TimeNs([&] {
        net::FrameDecoder decoder;
        decoder.Feed(frame.data(), frame.size());
        Result<std::optional<net::Frame>> decoded = decoder.Next();
        if (decoded.ok() && decoded.value().has_value()) {
          reply = net::DecodeReplyFrame(*decoded.value());
        }
      });
      ok = ok && reply.ok() && SameAnswer(reply.value().answer, ref.wire);
    }
    if (execute) {
      Result<ResultSet> rs = Status::Internal("not run");
      p->execute_ns += TimeNs([&] { rs = ExecuteQuery(server->adb->database(), q.adb_query); });
      ok = ok && rs.ok() && rs.value().rows() == ref.rows;
      if (rs.ok()) p->rows += double(rs.value().num_rows());
    }
  }

  obs::RequestTrace trace;
  ok = ok && same(uncached.Discover(set.examples, &trace));
  p->uncached_context_ns += double(trace.PhaseNs(obs::Phase::kContextDiscovery));

  ++p->requests;
  ++p->counts.attempted;
  ok ? ++p->counts.ok : ++p->counts.failed;
}

// --- report ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Counts& counts, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(counts.attempted),
              static_cast<unsigned long long>(counts.failed + counts.shed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintCounts(const char* phase, const Counts& c) {
  std::printf("counts: %s attempted=%llu ok=%llu failed=%llu shed=%llu\n", phase,
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.ok),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.shed));
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  PrintConfig(args);
  const bool tcp = args.workload != Workload::kExecute;

  // Wall time of each stage of the run, printed for whoever sizes --seconds.
  Clock::time_point stage = Clock::now();
  auto lap = [&stage](const char* name) {
    const Clock::time_point now = Clock::now();
    std::printf("stage: %s %.2f s\n", name, Seconds(stage, now));
    stage = now;
  };
  Inputs in = MakeInputs(args);
  lap("inputs");

  const std::vector<SetupTimes> setups =
      TimeSetups(*in.data.db, in.sets.front().examples, tcp, args.snapshot);
  lap("setups");
  std::vector<double> total_s, build_s, save_s, load_s, boot_s;
  for (const SetupTimes& t : setups) {
    total_s.push_back(t.total_s);
    build_s.push_back(t.build_s);
    save_s.push_back(t.save_s);
    load_s.push_back(t.load_s);
    boot_s.push_back(t.boot_s);
  }
  std::printf("setup: total_s");
  for (double s : total_s) std::printf(" %.4f", s);
  std::printf("\n");

  // The generated database is the workload's input, not the server's: free
  // it and hand the freed heap back to the kernel before the server boots
  // from the snapshot.
  in.data.db.reset();
  malloc_trim(0);
  SetupTimes untimed;
  Server server = Boot(args.snapshot, tcp, in.sets.front().examples, &untimed);
  struct stat snapshot_stat {};
  const double snapshot_bytes =
      stat(args.snapshot.c_str(), &snapshot_stat) == 0 ? double(snapshot_stat.st_size) : 0;
  std::remove(args.snapshot.c_str());

  RefSummary summary;
  const AbductionReadyDb& adb = *server.adb;
  lap("boot");
  std::vector<Reference> refs = ComputeReferences(adb, args.workload, &in.sets, &summary);
  lap("references");
  const Database& db = adb.database();
  // A set the reference could not answer is a failed operation.
  Counts counts;
  counts.attempted = summary.failed;
  counts.failed = summary.failed;
  // rss_mb is the peak from here on.
  ResetPeakRss();

  std::vector<size_t> order(in.sets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (args.workload != Workload::kLongtail) {
    Rng shuffle(args.seed + 7);
    shuffle.Shuffle(&order);
  }
  Cursor cursor(order);
  const Counts warm = WarmUp(args, &server, db, in.sets, refs, &cursor);
  lap("warmup");
  PrintCounts("warmup", warm);
  AddCounts(&counts, warm);

  SquidService* service = server.service.get();
  const ServeStats serve0 = service->stats();
  const net::TcpServerStats net0 = tcp ? server.tcp->stats() : net::TcpServerStats{};
  Timed timed = tcp ? RunTcp(server.client.get(), in.sets, refs, &cursor, args.seconds)
                    : RunExecute(service, db, in.sets, refs, &cursor, args.seconds);
  const double rss_mb = PeakRssMb();
  const ServeStats serve1 = service->stats();
  const net::TcpServerStats net1 = tcp ? server.tcp->stats() : net::TcpServerStats{};
  const CacheDelta cache = Delta(serve0, serve1);
  const std::vector<Slice> all_slices = Slices(timed);
  const std::vector<Slice> slices = CalmSlices(all_slices);
  std::printf("slices:");
  for (const Slice& sl : all_slices) {
    std::printf(" [rps=%.1f p50=%.4f p90=%.4f p99=%.4f cpu=%.4f steal=%.3f]", sl.rps, sl.p50_ms,
                sl.p90_ms, sl.p99_ms, sl.cpu_ms_per_req, sl.steal);
  }
  double max_steal = 0;
  for (const Slice& sl : all_slices) max_steal = std::max(max_steal, sl.steal);
  std::printf("\nslices: %zu timed, %zu calm; steal share median %.4f, max %.4f\n",
              all_slices.size(), slices.size(), SliceMedian(all_slices, &Slice::steal),
              max_steal);
  // Reported, not gated (see perfbench/README.md): the tail moves by up to
  // 2x between runs on a shared host, and in a closed loop throughput is
  // the window over the mean latency, so it carries every stall of the
  // host on top of what latency_p50_ms and cpu_ms_per_req measure.
  std::printf("wall: throughput_rps=%.1f latency_p90_ms=%.4f latency_p99_ms=%.4f "
              "(medians over calm slices)\n",
              SliceMedian(slices, &Slice::rps), SliceMedian(slices, &Slice::p90_ms),
              SliceMedian(slices, &Slice::p99_ms));

  PrintCounts("timed", timed.counts);
  AddCounts(&counts, timed.counts);
  std::printf("sizes: cache_budget_bytes=%zu cache_bytes=%zu cache_entries=%zu "
              "entities_touched=%zu hit_rate=%.4f misses=%llu evictions=%llu\n",
              kCacheBytes, serve1.bytes, serve1.entries, summary.entities, cache.HitRate(),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"latency_p50_ms", SliceMedian(slices, &Slice::p50_ms), "ms"},
        {"cpu_ms_per_req", SliceMedian(slices, &Slice::cpu_ms_per_req), "ms"},
        {"setup_s", Median(total_s), "s"},
        {"rss_mb", rss_mb, "MiB"},
        {"fscore", summary.fscore, "ratio"},
    };
    PrintCounts("total", counts);
    const bool correct = counts.failed == 0 && counts.shed == 0 && summary.not_contained == 0;
    PrintResult(correct, counts, metrics);
    return 0;
  }

  // --- traced run: probe the workload's real calls on the sets it cycles ---
  const bool execute = args.workload == Workload::kExecute;
  const double probe_s = std::max(1.0, args.seconds / 5);
  const Squid uncached(&adb);
  Probe probe;
  const Clock::time_point end =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(probe_s));
  while (Clock::now() < end) {
    const size_t index = cursor.Next();
    ProbeOne(&server, uncached, in.sets[index], refs[index], tcp, execute, &probe);
  }
  PrintCounts("probe", probe.counts);
  AddCounts(&counts, probe.counts);
  PrintCounts("total", counts);

  const double n = std::max<double>(1, double(probe.requests));
  auto us = [&](double ns) { return ns / n / 1e3; };
  auto phase_us = [&](obs::Phase phase) {
    return us(probe.phase_ns[static_cast<size_t>(phase)]);
  };
  const double encode_us = us(probe.encode_ns - probe.to_sql_ns);
  // The request end to end: the socket round trip, or DiscoverSync then
  // ExecuteQuery; the layers on that path add up to it but for what no
  // layer times (syscalls, the event loop, thread wake-ups).
  const double e2e_us = tcp ? us(probe.tcp_ns) : us(probe.sync_ns + probe.execute_ns);
  double layers_us = us(probe.to_sql_ns) + encode_us + us(probe.decode_ns) + us(probe.execute_ns);
  for (obs::Phase phase : {obs::Phase::kQueueWait, obs::Phase::kEntityLookup,
                           obs::Phase::kDisambiguation, obs::Phase::kContextDiscovery,
                           obs::Phase::kAbduction, obs::Phase::kQueryBuild}) {
    layers_us += phase_us(phase);
  }
  const obs::HistogramSnapshot queue_wait =
      HistogramDelta(serve0.queue_wait_ns, serve1.queue_wait_ns);
  const double timed_requests = std::max<double>(1, double(timed.counts.attempted));
  const double candidates = std::max<double>(1, double(probe.work.candidate_base_queries));
  const double lookups =
      double(probe.work.entity_row_lookups + probe.work.entity_row_lookups_saved);

  metrics = {
      {"adb.build_s", Median(build_s), "s"},
      {"adb.snapshot_save_s", Median(save_s), "s"},
      {"adb.snapshot_load_s", Median(load_s), "s"},
      {"adb.snapshot_bytes", snapshot_bytes, "bytes"},
      {"adb.index_bytes", double(adb.report().index_bytes), "bytes"},
      {"serve.boot_s", Median(boot_s), "s"},
      {"net.overhead_us", tcp ? us(probe.tcp_ns - probe.sync_ns) : 0, "us"},
      {"net.encode_answer_us", encode_us, "us"},
      {"net.decode_reply_us", us(probe.decode_ns), "us"},
      {"net.bytes_per_req",
       tcp ? double((net1.bytes_received - net0.bytes_received) +
                    (net1.bytes_sent - net0.bytes_sent)) / timed_requests
           : 0,
       "bytes"},
      {"net.rejected_overload", tcp ? double(net1.rejected_overload) : 0, "count"},
      {"serve.queue_wait_p50_us", double(queue_wait.ValueAtQuantile(0.50)) / 1e3, "us"},
      {"serve.queue_wait_p99_us", double(queue_wait.ValueAtQuantile(0.99)) / 1e3, "us"},
      {"serve.cache_hit_rate", cache.HitRate(), "ratio"},
      {"serve.cache_misses", double(cache.misses), "count"},
      {"serve.cache_evictions", double(cache.evictions), "count"},
      {"serve.cache_bytes", double(serve1.bytes), "bytes"},
      {"serve.contexts_us", phase_us(obs::Phase::kContextDiscovery), "us"},
      {"core.lookup_us", phase_us(obs::Phase::kEntityLookup), "us"},
      {"core.disambiguate_us", phase_us(obs::Phase::kDisambiguation), "us"},
      {"core.context_us", us(probe.uncached_context_ns), "us"},
      {"core.abduce_us", phase_us(obs::Phase::kAbduction), "us"},
      {"core.build_query_us", phase_us(obs::Phase::kQueryBuild), "us"},
      {"sql.to_sql_us", us(probe.to_sql_ns), "us"},
      {"core.candidates_per_req", double(probe.work.candidate_base_queries) / n, "count"},
      {"core.abduced_per_candidate", double(probe.work.candidates_abduced) / candidates,
       "ratio"},
      {"core.row_lookups_saved_ratio",
       lookups == 0 ? 0 : double(probe.work.entity_row_lookups_saved) / lookups, "ratio"},
      {"exec.execute_us", us(probe.execute_ns), "us"},
      {"exec.rows_per_query", probe.rows / n, "rows"},
      {"unattributed_us", e2e_us - layers_us, "us"},
      {"trace.overhead_pct", probe.sync_ns == 0 ? 0 : 100.0 * (probe.traced_ns / probe.sync_ns - 1.0),
       "%"},
  };
  const bool correct = counts.failed == 0 && counts.shed == 0 && summary.not_contained == 0 &&
                       (!tcp || net1.rejected_overload == 0);
  PrintResult(correct, counts, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace squid

int main(int argc, char** argv) { return squid::perfbench::Main(argc, argv); }
