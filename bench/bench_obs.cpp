// Observability overhead: what does it cost to keep metrics and tracing on?
//
// Three measurements, each a table in the --json output:
//  - recording overhead: ns/op of the metrics hot-path primitives
//    (LatencyHistogram::Record, Counter::Add) against the same loop with an
//    empty op, and of a ScopedPhaseTimer on a real trace against one on a
//    null trace, at 1 and 4 recording threads. Metrics are always on, so
//    the recorded column must stay in the low tens of ns over its baseline
//    or it has no business on the serve hot path.
//  - percentile sanity: a deterministic synthetic distribution recorded
//    into a histogram, reporting p50/p90/p99/max straight from the
//    snapshot — the quantile chain must be monotone.
//  - serve pass: a closed-loop DiscoverSync pass on a real SquidService
//    (warm-up pass first), plus the server-side latency percentiles it
//    recorded.
//
// scripts/check_bench_trends.py (check_obs) gates all three: recording
// within an absolute slack of its baseline, p50 <= p99 <= max, and the
// serve pass's p50 <= p99.
//
// Flags: --scale=0.15 --requests=16 --runs=1 --json=<path>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/squid_service.h"

namespace squid {
namespace bench {
namespace {

/// Pre-generated value stream so the measured loop pays only the recording
/// primitive (plus one L1-resident load and a mask).
std::vector<uint64_t> SampleValues() {
  std::vector<uint64_t> values(4096);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x >> 40;  // ~[0, 16M) — a plausible nanosecond latency range
  }
  return values;
}

/// Runs `op(value)` ops_per_thread times on each of `threads` threads and
/// returns wall-clock ns per op. With one thread this is plain serial cost;
/// with several it includes whatever contention the primitive admits.
template <typename Op>
double MeasureNsPerOp(size_t threads, size_t ops_per_thread, const Op& op) {
  const std::vector<uint64_t> values = SampleValues();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Stopwatch timer;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      size_t i = t;  // stagger the streams so threads read different words
      for (size_t n = 0; n < ops_per_thread; ++n) {
        op(values[i & (values.size() - 1)]);
        ++i;
      }
    });
  }
  for (auto& w : workers) w.join();
  return timer.ElapsedSeconds() * 1e9 /
         static_cast<double>(threads * ops_per_thread);
}

/// Best-of-`runs` measurement (the minimum is the least-noise estimate on a
/// shared runner).
template <typename Op>
double BestNsPerOp(size_t runs, size_t threads, size_t ops_per_thread,
                   const Op& op) {
  double best = 0;
  for (size_t r = 0; r < runs; ++r) {
    double ns = MeasureNsPerOp(threads, ops_per_thread, op);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

struct PassResult {
  double seconds = 0;
  size_t answered = 0;
};

/// Closed loop: `clients` threads each drain their slice of the request
/// list, one in-flight request per client (same shape as
/// bench_serve_throughput).
PassResult RunPass(SquidService* service,
                   const std::vector<const std::vector<std::string>*>& requests,
                   size_t clients) {
  std::atomic<size_t> next{0};
  std::atomic<size_t> answered{0};
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        auto result = service->DiscoverSync(*requests[i]);
        if (result.ok()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  PassResult out;
  out.seconds = timer.ElapsedSeconds();
  out.answered = answered.load();
  return out;
}

std::vector<std::vector<std::string>> BuildExampleSets(const ImdbBench& bench,
                                                       size_t distinct) {
  std::vector<std::vector<std::string>> sets;
  sets.push_back(
      {bench.data.manifest.costar_a, bench.data.manifest.costar_b});
  const char* ids[] = {"IQ1", "IQ6", "IQ13", "IQ15"};
  uint64_t seed = 101;
  while (sets.size() < distinct) {
    bool grew = false;
    for (const char* id : ids) {
      if (sets.size() >= distinct) break;
      auto query = FindQuery(bench.queries, id);
      if (!query.ok()) continue;
      auto truth = GroundTruth(*bench.data.db, *query.value());
      if (!truth.ok()) continue;
      Rng rng(seed++);
      auto examples = SampleExamples(truth.value(), 5, &rng);
      if (examples.size() >= 2) {
        sets.push_back(std::move(examples));
        grew = true;
      }
    }
    if (!grew) break;
  }
  return sets;
}

}  // namespace

void Run(int argc, char** argv) {
  InitBenchIo(argc, argv, "bench_obs");
  const double scale = FlagOr(argc, argv, "scale", kImdbBenchScale);
  const size_t requests = SizeFlagOr(argc, argv, "requests", 16);
  const size_t runs = std::max<size_t>(1, SizeFlagOr(argc, argv, "runs", 3));
  const size_t ops = 1u << 20;

  // --- recording overhead --------------------------------------------------
  Banner("Observability", "metrics hot-path cost over an empty loop");
  std::printf("%zu ops/thread, best of %zu run(s)\n\n", ops, runs);

  obs::MetricsRegistry registry;
  obs::LatencyHistogram* hist = registry.GetHistogram("bench_record_ns");
  obs::Counter* counter = registry.GetCounter("bench_counter");
  obs::RequestTrace trace;

  TablePrinter overhead({"op", "threads", "baseline (ns)", "recorded (ns)"});
  const size_t thread_counts[] = {1, 4};
  for (size_t threads : thread_counts) {
    // The empty op still consumes its value, so the loop is not elided.
    auto empty = [](uint64_t v) { asm volatile("" : : "r"(v)); };
    auto record = [&](uint64_t v) { hist->Record(v); };
    auto add = [&](uint64_t v) { counter->Add(v & 1); };
    const double empty_ns = BestNsPerOp(runs, threads, ops, empty);
    const double record_ns = BestNsPerOp(runs, threads, ops, record);
    const double add_ns = BestNsPerOp(runs, threads, ops, add);
    // A null trace reads no clock; a real one pays two monotonic clock
    // reads plus two relaxed adds.
    auto timer_null = [&](uint64_t) {
      obs::ScopedPhaseTimer t(nullptr, obs::Phase::kAbduction);
    };
    auto timer_traced = [&](uint64_t) {
      obs::ScopedPhaseTimer t(&trace, obs::Phase::kAbduction);
    };
    const double phase_null = BestNsPerOp(runs, threads, ops / 4, timer_null);
    const double phase_traced = BestNsPerOp(runs, threads, ops / 4, timer_traced);
    overhead.AddRow({"histogram record", TablePrinter::Int(threads),
                     TablePrinter::Num(empty_ns, 2),
                     TablePrinter::Num(record_ns, 2)});
    overhead.AddRow({"counter add", TablePrinter::Int(threads),
                     TablePrinter::Num(empty_ns, 2),
                     TablePrinter::Num(add_ns, 2)});
    overhead.AddRow({"phase timer", TablePrinter::Int(threads),
                     TablePrinter::Num(phase_null, 2),
                     TablePrinter::Num(phase_traced, 2)});
  }
  overhead.Print();

  // --- percentile sanity ---------------------------------------------------
  Banner("Observability", "snapshot percentiles on a synthetic distribution");
  obs::LatencyHistogram* ramp = registry.GetHistogram("bench_ramp_ns");
  // 1..1000 us ramp plus a 50 ms straggler: p50 near the middle of the
  // ramp, max pinned by the straggler.
  for (uint64_t i = 1; i <= 1000; ++i) ramp->Record(i * 1000);
  ramp->Record(50'000'000);
  const obs::HistogramSnapshot snap = ramp->Snapshot();
  TablePrinter percentiles(
      {"hist", "count", "p50 ns", "p90 ns", "p99 ns", "max ns"});
  percentiles.AddRow({"synthetic ramp", TablePrinter::Int(snap.count),
                      TablePrinter::Int(snap.ValueAtQuantile(0.50)),
                      TablePrinter::Int(snap.ValueAtQuantile(0.90)),
                      TablePrinter::Int(snap.ValueAtQuantile(0.99)),
                      TablePrinter::Int(snap.max)});
  percentiles.Print();

  // --- serve pass ------------------------------------------------------------
  Banner("Observability", "closed-loop serve pass");
  ImdbBench bench = BuildImdbBench(scale);
  std::printf("IMDb scale %.2f, %zu requests per pass\n\n", scale, requests);
  auto sets = BuildExampleSets(bench, 3);
  std::vector<const std::vector<std::string>*> request_list;
  request_list.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    request_list.push_back(&sets[i % sets.size()]);
  }

  TablePrinter serve(
      {"threads", "requests", "pass (s)", "srv p50 ms", "srv p99 ms"});
  const size_t serve_threads[] = {1, 2};
  for (size_t threads : serve_threads) {
    // A warm-up pass first, so the measured pass runs cache-warm; the
    // histograms then hold both passes.
    ServeOptions options;
    options.threads = threads;
    options.queue_capacity = 2 * threads;
    SquidService service(bench.adb.get(), options);
    PassResult warmup = RunPass(&service, request_list, threads);
    PassResult pass = RunPass(&service, request_list, threads);
    SQUID_CHECK(warmup.answered == requests && pass.answered == requests)
        << "obs serve bench requests failed";
    const ServeStats stats = service.stats();
    serve.AddRow(
        {TablePrinter::Int(threads), TablePrinter::Int(requests),
         TablePrinter::Num(pass.seconds, 4),
         TablePrinter::Num(static_cast<double>(stats.RequestP50Ns()) / 1e6, 3),
         TablePrinter::Num(static_cast<double>(stats.RequestP99Ns()) / 1e6, 3)});
  }
  serve.Print();
  std::printf(
      "\nRecording is a sharded relaxed fetch_add; the baseline column is the\n"
      "same loop with an empty op (a null trace for the phase timer).\n");
}

}  // namespace bench
}  // namespace squid

int main(int argc, char** argv) {
  squid::bench::Run(argc, argv);
  return 0;
}
