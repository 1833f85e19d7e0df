// Observability subsystem tests: exact log-linear bucket boundaries,
// snapshot merge commutativity, concurrent 8-thread recording vs a serial
// reference, empty/overflow buckets, the metrics registry and its
// Prometheus-style text exposition, RequestTrace accumulation under
// concurrency, and the StatsResponse histogram wire section — round-trip
// plus a hostile truncation/corruption battery in the style of the net and
// snapshot suites. Runs under the TSan and ASan+UBSan CI jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace squid {
namespace {

using obs::BucketIndex;
using obs::BucketLowerBound;
using obs::BucketUpperBound;
using obs::HistogramSnapshot;
using obs::kNumBuckets;
using obs::kSubBuckets;
using obs::LatencyHistogram;
using obs::MetricsRegistry;

// ---------- bucket math ----------

TEST(ObsBucketTest, SmallValuesMapExactly) {
  for (uint64_t v = 0; v < kSubBuckets; ++v) {
    EXPECT_EQ(BucketIndex(v), v);
    EXPECT_EQ(BucketLowerBound(v), v);
    EXPECT_EQ(BucketUpperBound(v), v);
  }
}

TEST(ObsBucketTest, BoundsInvertTheIndexAtEveryBucket) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    EXPECT_EQ(BucketIndex(BucketLowerBound(i)), i) << "bucket " << i;
    EXPECT_EQ(BucketIndex(BucketUpperBound(i)), i) << "bucket " << i;
  }
  // Adjacent buckets tile the u64 range with no gaps or overlap.
  for (size_t i = 0; i + 1 < kNumBuckets; ++i) {
    EXPECT_EQ(BucketUpperBound(i) + 1, BucketLowerBound(i + 1)) << i;
  }
}

TEST(ObsBucketTest, KnownBoundariesAndExtremes) {
  // First octave above the exact range: 4..7 split into 4 sub-buckets of 1.
  EXPECT_EQ(BucketIndex(4), kSubBuckets);
  EXPECT_EQ(BucketIndex(5), kSubBuckets + 1);
  EXPECT_EQ(BucketIndex(7), kSubBuckets + 3);
  EXPECT_EQ(BucketIndex(8), 2 * kSubBuckets);
  // Relative error bound: width(bucket)/lower(bucket) <= 1/kSubBuckets.
  for (size_t i = kSubBuckets; i + 1 < kNumBuckets; ++i) {
    const uint64_t lo = BucketLowerBound(i);
    const uint64_t width = BucketUpperBound(i) - lo + 1;
    EXPECT_LE(width * kSubBuckets, lo) << "bucket " << i;
  }
  EXPECT_EQ(BucketIndex(UINT64_MAX), kNumBuckets - 1);
  EXPECT_EQ(BucketUpperBound(kNumBuckets - 1), UINT64_MAX);
}

// ---------- recording and snapshots ----------

TEST(ObsHistogramTest, SerialRecordingMatchesAReference) {
  Rng rng(20260808);
  LatencyHistogram hist;
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Mix of scales: exact range, mid-range latencies, and huge outliers.
    uint64_t v = 0;
    switch (rng.UniformInt(0, 2)) {
      case 0: v = static_cast<uint64_t>(rng.UniformInt(0, 3)); break;
      case 1: v = static_cast<uint64_t>(rng.UniformInt(100, 5'000'000)); break;
      default:
        v = static_cast<uint64_t>(rng.UniformInt(1'000'000'000, INT64_MAX));
    }
    values.push_back(v);
    hist.Record(v);
  }
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, values.size());
  uint64_t sum = 0, max = 0;
  for (uint64_t v : values) {
    sum += v;
    max = std::max(max, v);
  }
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, max);
  // Bucket-for-bucket against a directly computed reference.
  std::array<uint64_t, kNumBuckets> reference{};
  for (uint64_t v : values) reference[BucketIndex(v)]++;
  EXPECT_EQ(snap.buckets, reference);
  // Quantiles: each answer must be >= the true order statistic's bucket
  // lower bound and <= its bucket upper bound (clamped to max).
  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(values.size()));
    if (static_cast<double>(rank) < q * static_cast<double>(values.size())) ++rank;
    if (rank == 0) rank = 1;
    const uint64_t exact = values[rank - 1];
    const uint64_t answered = snap.ValueAtQuantile(q);
    EXPECT_GE(answered, BucketLowerBound(BucketIndex(exact))) << "q=" << q;
    EXPECT_LE(answered, std::min(BucketUpperBound(BucketIndex(exact)), max))
        << "q=" << q;
  }
  EXPECT_LE(snap.ValueAtQuantile(0.5), snap.ValueAtQuantile(0.99));
  EXPECT_LE(snap.ValueAtQuantile(0.99), snap.max);
}

TEST(ObsHistogramTest, EmptyAndOverflowBuckets) {
  LatencyHistogram hist;
  HistogramSnapshot empty = hist.Snapshot();
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(empty.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);

  // The top bucket holds the largest representable values without wrapping.
  hist.Record(UINT64_MAX);
  hist.Record(UINT64_MAX - 1);
  HistogramSnapshot top = hist.Snapshot();
  EXPECT_EQ(top.count, 2u);
  EXPECT_EQ(top.max, UINT64_MAX);
  EXPECT_EQ(top.buckets[kNumBuckets - 1], 2u);
  EXPECT_EQ(top.ValueAtQuantile(1.0), UINT64_MAX);
}

TEST(ObsHistogramTest, MergeIsCommutative) {
  Rng rng(7);
  LatencyHistogram ha, hb;
  for (int i = 0; i < 2000; ++i) {
    ha.Record(static_cast<uint64_t>(rng.UniformInt(0, 1'000'000)));
    hb.Record(static_cast<uint64_t>(rng.UniformInt(500, INT32_MAX)));
  }
  HistogramSnapshot a = ha.Snapshot();
  HistogramSnapshot b = hb.Snapshot();
  HistogramSnapshot ab = a;
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.count, a.count + b.count);
  EXPECT_EQ(ab.sum, a.sum + b.sum);
  EXPECT_EQ(ab.max, std::max(a.max, b.max));
}

TEST(ObsHistogramTest, ConcurrentRecordingMatchesSerialTotals) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  LatencyHistogram concurrent;
  LatencyHistogram serial;
  // Each thread records a deterministic per-thread stream; the serial
  // reference records the identical multiset from one thread.
  std::vector<std::vector<uint64_t>> streams(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + t);
    streams[t].reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      streams[t].push_back(static_cast<uint64_t>(rng.UniformInt(0, INT64_MAX)));
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &streams, t] {
      for (uint64_t v : streams[t]) concurrent.Record(v);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& stream : streams) {
    for (uint64_t v : stream) serial.Record(v);
  }
  // At quiescence the sharded snapshot is exact: identical to the serial
  // recording of the same samples, bucket for bucket.
  EXPECT_EQ(concurrent.Snapshot(), serial.Snapshot());
}

// ---------- registry ----------

TEST(ObsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("requests");
  obs::Counter* c2 = registry.GetCounter("requests");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("other"), c1);
  EXPECT_EQ(registry.GetHistogram("lat"), registry.GetHistogram("lat"));
  EXPECT_EQ(registry.GetGauge("depth"), registry.GetGauge("depth"));

  c1->Add(3);
  registry.GetGauge("depth")->Set(11);
  registry.GetHistogram("lat")->Record(1000);
  auto counters = registry.CounterValues();
  ASSERT_EQ(counters.size(), 2u);  // sorted: other, requests
  EXPECT_EQ(counters[0].first, "other");
  EXPECT_EQ(counters[1].first, "requests");
  EXPECT_EQ(counters[1].second, 3u);
  auto hists = registry.HistogramSnapshots();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].second.count, 1u);
}

TEST(ObsRegistryTest, DumpTextIsPrometheusShaped) {
  MetricsRegistry registry;
  registry.GetCounter("squid_requests_total")->Add(5);
  registry.GetGauge("squid_queue_depth")->Set(2);
  obs::LatencyHistogram* hist = registry.GetHistogram("squid_request_ns");
  hist->Record(3);
  hist->Record(1000);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("# TYPE squid_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("squid_requests_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE squid_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("squid_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE squid_request_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("squid_request_ns_bucket{le=\"3\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("squid_request_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("squid_request_ns_count 2\n"), std::string::npos);
  // Deterministic: same registry, same text.
  EXPECT_EQ(text, registry.DumpText());
}

// ---------- request trace ----------

TEST(ObsTraceTest, PhasesAccumulateAndFormat) {
  obs::RequestTrace trace;
  trace.AddPhase(obs::Phase::kEntityLookup, 1000);
  trace.AddPhase(obs::Phase::kAbduction, 2000);
  trace.AddPhase(obs::Phase::kAbduction, 3000);
  EXPECT_EQ(trace.PhaseNs(obs::Phase::kAbduction), 5000u);
  EXPECT_EQ(trace.PhaseCalls(obs::Phase::kAbduction), 2u);
  EXPECT_EQ(trace.TotalNs(), 6000u);
  const std::string text = trace.Format();
  EXPECT_NE(text.find("entity_lookup"), std::string::npos);
  EXPECT_NE(text.find("abduction"), std::string::npos);
  EXPECT_EQ(text.find("executor_run"), std::string::npos);  // empty: skipped
  trace.Reset();
  EXPECT_EQ(trace.TotalNs(), 0u);
  EXPECT_NE(trace.Format().find("no phases recorded"), std::string::npos);
}

TEST(ObsTraceTest, ConcurrentPhaseAddsAreExact) {
  obs::RequestTrace trace;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace] {
      for (int i = 0; i < kAdds; ++i) {
        trace.AddPhase(obs::Phase::kAbduction, 3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(trace.PhaseNs(obs::Phase::kAbduction),
            static_cast<uint64_t>(kThreads) * kAdds * 3);
  EXPECT_EQ(trace.PhaseCalls(obs::Phase::kAbduction),
            static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(ObsTraceTest, NullTraceTimerIsANoOp) {
  // Must not crash or read the clock; nothing observable to assert beyond
  // surviving, which the sanitizer jobs give teeth.
  obs::ScopedPhaseTimer timer(nullptr, obs::Phase::kExecutorRun);
}

// ---------- wire section ----------

HistogramSnapshot SampleSnapshot(uint64_t seed) {
  Rng rng(seed);
  LatencyHistogram hist;
  for (int i = 0; i < 500; ++i) {
    hist.Record(static_cast<uint64_t>(rng.UniformInt(0, 50'000'000)));
  }
  return hist.Snapshot();
}

TEST(ObsWireTest, StatsHistogramSectionRoundTrips) {
  const auto counters = std::vector<std::pair<std::string, uint64_t>>{
      {"requests_admitted", 41}, {"rejected_overload", 1}};
  std::vector<net::WireHistogram> histograms;
  histograms.push_back({"queue_wait_ns", SampleSnapshot(1)});
  histograms.push_back({"request_ns", SampleSnapshot(2)});
  histograms.push_back({"empty_ns", HistogramSnapshot{}});

  std::string stream =
      net::EncodeStatsResponseFrame(99, counters, histograms);
  net::FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame.value().has_value());
  auto reply = net::DecodeReplyFrame(*frame.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().kind, net::Reply::Kind::kStats);
  EXPECT_EQ(reply.value().request_id, 99u);
  EXPECT_EQ(reply.value().counters, counters);
  ASSERT_EQ(reply.value().histograms.size(), 3u);
  for (size_t i = 0; i < histograms.size(); ++i) {
    EXPECT_EQ(reply.value().histograms[i].name, histograms[i].name);
    EXPECT_EQ(reply.value().histograms[i].snapshot, histograms[i].snapshot)
        << histograms[i].name;
  }
  // Percentiles derivable client-side from the decoded snapshot.
  const HistogramSnapshot& got = reply.value().histograms[1].snapshot;
  EXPECT_EQ(got.ValueAtQuantile(0.99),
            histograms[1].snapshot.ValueAtQuantile(0.99));
}

TEST(ObsWireTest, StatsFrameWithoutHistogramSectionIsRejected) {
  // The histogram section is mandatory: a payload ending right after the
  // counters is indistinguishable from a truncation and must not decode.
  // The two-argument encoder always appends an (empty) versioned section;
  // strip it off to forge a section-less frame.
  const auto counters =
      std::vector<std::pair<std::string, uint64_t>>{{"frames_received", 7}};
  std::string with_section = net::EncodeStatsResponseFrame(5, counters);
  net::Frame frame;
  frame.type = net::FrameType::kStatsResponse;
  frame.payload = with_section.substr(5);  // drop frame header
  frame.payload.resize(frame.payload.size() - 8);  // drop version+count
  auto reply = net::DecodeReplyFrame(frame);
  EXPECT_FALSE(reply.ok());
}

TEST(ObsWireTest, CorruptHistogramSectionsAreRejectedCleanly) {
  std::vector<net::WireHistogram> histograms;
  histograms.push_back({"request_ns", SampleSnapshot(3)});
  const std::string valid_frame =
      net::EncodeStatsResponseFrame(1, {{"c", 2}}, histograms);
  const std::string payload = valid_frame.substr(5);  // strip frame header

  auto decode = [](std::string p) {
    net::Frame frame;
    frame.type = net::FrameType::kStatsResponse;
    frame.payload = std::move(p);
    return net::DecodeReplyFrame(frame);
  };
  ASSERT_TRUE(decode(payload).ok());

  // Truncation at every prefix: each either fails with a clean Status or —
  // only where the cut lands exactly at the legacy boundary — decodes
  // without histograms. Never UB (ASan/UBSan give this teeth).
  for (size_t n = 0; n < payload.size(); ++n) {
    auto reply = decode(payload.substr(0, n));
    if (reply.ok()) {
      EXPECT_TRUE(reply.value().histograms.empty()) << "cut at " << n;
    } else {
      EXPECT_EQ(reply.status().code(), StatusCode::kCorruption)
          << "cut at " << n;
    }
  }

  // Unknown section version.
  {
    std::string p;
    wire::AppendU64(&p, 1);
    wire::AppendU32(&p, 0);  // no counters
    wire::AppendU32(&p, 999);  // bad version
    wire::AppendU32(&p, 0);
    auto reply = decode(p);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kCorruption);
  }

  // Hostile histogram count: 2^31 histograms declared in a few bytes.
  {
    std::string p;
    wire::AppendU64(&p, 1);
    wire::AppendU32(&p, 0);
    wire::AppendU32(&p, net::kStatsHistogramVersion);
    wire::AppendU32(&p, 0x80000000u);
    auto reply = decode(p);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kCorruption);
  }

  auto hostile_histogram = [&](uint32_t nonzero,
                               std::vector<std::pair<uint32_t, uint64_t>>
                                   buckets,
                               uint64_t declared_count) {
    std::string p;
    wire::AppendU64(&p, 1);
    wire::AppendU32(&p, 0);
    wire::AppendU32(&p, net::kStatsHistogramVersion);
    wire::AppendU32(&p, 1);
    wire::AppendString(&p, "h");
    wire::AppendU64(&p, declared_count);
    wire::AppendU64(&p, 0);  // sum
    wire::AppendU64(&p, 0);  // max
    wire::AppendU32(&p, nonzero);
    for (const auto& [index, count] : buckets) {
      wire::AppendU32(&p, index);
      wire::AppendU64(&p, count);
    }
    return decode(p);
  };

  // Bucket index out of range.
  auto r1 = hostile_histogram(1, {{static_cast<uint32_t>(kNumBuckets), 1}}, 1);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCorruption);
  // Non-increasing indexes.
  auto r2 = hostile_histogram(2, {{5, 1}, {5, 1}}, 2);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCorruption);
  // Zero-count bucket.
  auto r3 = hostile_histogram(1, {{5, 0}}, 0);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kCorruption);
  // Declared total disagreeing with the buckets.
  auto r4 = hostile_histogram(1, {{5, 3}}, 4);
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kCorruption);

  // Deterministic bit-flip fuzz over the valid payload: any mix of clean
  // errors and accidental decodes is fine; UB is not.
  Rng rng(20260808);
  for (int round = 0; round < 256; ++round) {
    std::string mutated = payload;
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const size_t at =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(mutated[at] ^
                                      (1 << rng.UniformInt(0, 7)));
    }
    (void)decode(std::move(mutated));  // outcome irrelevant; no UB
  }
}

}  // namespace
}  // namespace squid
