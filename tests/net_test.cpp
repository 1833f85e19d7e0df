// Network front-end tests: the framing codec as a trust boundary
// (truncated/oversized/garbage bytes yield Status errors, never UB — the
// same battery style as the snapshot corruption tests), the token bucket,
// and the TCP server end to end — socket answers byte-identical to
// in-process DiscoverSync across thread counts, pipelining, load shedding
// under overload, per-session rate limits, and graceful drain. Carries the
// ctest label `serve` and runs under the -DSQUID_TSAN=ON CI job.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/squid.h"
#include "net/frame.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "net/token_bucket.h"
#include "serve/squid_service.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using bench::BuildImdbBench;
using bench::ImdbBench;

// ---------- framing codec ----------

net::WireAnswer SampleAnswer() {
  net::WireAnswer answer;
  answer.entity_relation = "person";
  answer.projection_attr = "name";
  answer.adb_sql = "SELECT person.name FROM person";
  answer.original_sql = "SELECT p.name FROM person p";
  answer.log_posterior = -12.3456789012345678;  // exact bits must survive
  answer.filters_included = 3;
  answer.filters_total = 7;
  answer.entity_keys = {"17", "42", "1001"};
  return answer;
}

TEST(NetFrameTest, FramesRoundTripThroughTheDecoder) {
  const std::vector<std::string> examples = {"Tom Hanks", "Meg; Ryan", ""};
  const auto counters = std::vector<std::pair<std::string, uint64_t>>{
      {"requests_admitted", 9}, {"rejected_overload", 2}};
  std::string stream;
  stream += net::EncodeDiscoverRequestFrame(7, examples);
  stream += net::EncodeDiscoverOkFrame(8, SampleAnswer());
  stream += net::EncodeDiscoverErrorFrame(
      9, Status::NotFound("no entity matched"));
  stream += net::EncodeOverloadedFrame(10, 50, "rate limited");
  stream += net::EncodeStatsRequestFrame(11);
  stream += net::EncodeStatsResponseFrame(12, counters);

  // Feed one byte at a time: every partial prefix must yield "need more",
  // never an error or a premature frame.
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  for (char byte : stream) {
    decoder.Feed(&byte, 1);
    for (;;) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.value().has_value()) break;
      frames.push_back(std::move(*next.value()));
    }
  }
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(decoder.buffered(), 0u);

  uint64_t id = 0;
  std::vector<std::string> decoded_examples;
  ASSERT_TRUE(
      net::DecodeDiscoverRequest(frames[0].payload, &id, &decoded_examples)
          .ok());
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(decoded_examples, examples);

  auto ok_reply = net::DecodeReplyFrame(frames[1]);
  ASSERT_TRUE(ok_reply.ok()) << ok_reply.status().ToString();
  EXPECT_EQ(ok_reply.value().kind, net::Reply::Kind::kOk);
  EXPECT_EQ(ok_reply.value().request_id, 8u);
  EXPECT_EQ(ok_reply.value().answer.Encode(), SampleAnswer().Encode());

  auto err_reply = net::DecodeReplyFrame(frames[2]);
  ASSERT_TRUE(err_reply.ok());
  EXPECT_EQ(err_reply.value().kind, net::Reply::Kind::kError);
  EXPECT_EQ(err_reply.value().ToStatus().code(), StatusCode::kNotFound);
  EXPECT_EQ(err_reply.value().error_message, "no entity matched");

  auto overloaded = net::DecodeReplyFrame(frames[3]);
  ASSERT_TRUE(overloaded.ok());
  EXPECT_EQ(overloaded.value().kind, net::Reply::Kind::kOverloaded);
  EXPECT_EQ(overloaded.value().retry_after_ms, 50u);
  EXPECT_EQ(overloaded.value().reason, "rate limited");

  auto stats = net::DecodeReplyFrame(frames[5]);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().kind, net::Reply::Kind::kStats);
  EXPECT_EQ(stats.value().counters, counters);
}

TEST(NetFrameTest, DecoderRejectsUnknownTypeAndStaysPoisoned) {
  net::FrameDecoder decoder;
  const char garbage[] = {char(0xEE), 0, 0, 0, 0};
  decoder.Feed(garbage, sizeof(garbage));
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
  // Sticky: a later (valid) feed cannot resurrect the stream.
  const std::string valid = net::EncodeStatsRequestFrame(1);
  decoder.Feed(valid.data(), valid.size());
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(NetFrameTest, DecoderRejectsOversizedDeclaredLength) {
  net::FrameDecoder decoder(/*max_payload=*/64);
  std::string frame;
  wire::AppendTagged(&frame,
                     static_cast<uint8_t>(net::FrameType::kDiscoverRequest),
                     std::string(65, 'x'));
  decoder.Feed(frame.data(), frame.size());
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().ToString().find("exceeds limit"), std::string::npos);
}

TEST(NetFrameTest, TruncatedPayloadsFailCleanly) {
  // Every strict prefix of every reply payload must decode to a Status
  // error — never a crash, never a bogus success.
  const std::vector<net::Frame> whole = [] {
    std::vector<net::Frame> frames;
    auto push = [&frames](const std::string& encoded) {
      net::FrameDecoder decoder;
      decoder.Feed(encoded.data(), encoded.size());
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok() && next.value().has_value());
      frames.push_back(std::move(*next.value()));
    };
    push(net::EncodeDiscoverOkFrame(5, SampleAnswer()));
    push(net::EncodeDiscoverErrorFrame(6, Status::Internal("boom")));
    push(net::EncodeOverloadedFrame(7, 10, "q"));
    push(net::EncodeStatsResponseFrame(8, {{"a", 1}, {"b", 2}}));
    return frames;
  }();
  for (const net::Frame& frame : whole) {
    for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
      net::Frame truncated{frame.type, frame.payload.substr(0, cut)};
      auto reply = net::DecodeReplyFrame(truncated);
      EXPECT_FALSE(reply.ok())
          << "type " << static_cast<int>(frame.type) << " cut at " << cut;
    }
    // Trailing garbage is equally corrupt.
    net::Frame padded{frame.type, frame.payload + "!"};
    EXPECT_FALSE(net::DecodeReplyFrame(padded).ok());
  }
  // Same battery for the request payload.
  const std::string request = net::EncodeDiscoverRequestFrame(3, {"a", "b"});
  net::FrameDecoder decoder;
  decoder.Feed(request.data(), request.size());
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok() && next.value().has_value());
  const std::string& payload = next.value()->payload;
  uint64_t id = 0;
  std::vector<std::string> examples;
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeDiscoverRequest(payload.substr(0, cut), &id,
                                            &examples)
                     .ok())
        << "cut at " << cut;
  }
}

TEST(NetFrameTest, HostileCountsAndRandomBytesNeverCrash) {
  // A tiny payload declaring 2^31 examples must be rejected before any
  // allocation in its name.
  std::string hostile;
  wire::AppendU64(&hostile, 1);
  wire::AppendU32(&hostile, 0x80000000u);
  uint64_t id = 0;
  std::vector<std::string> examples;
  Status decoded = net::DecodeDiscoverRequest(hostile, &id, &examples);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), StatusCode::kCorruption);

  // Deterministic random-bytes fuzz through the stream decoder: any mix of
  // outcomes is fine, UB is not (ASan/TSan jobs give this batch teeth).
  Rng rng(20260808);
  for (int round = 0; round < 64; ++round) {
    net::FrameDecoder decoder(1 << 16);
    std::string noise;
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 512));
    noise.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      noise.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    decoder.Feed(noise.data(), noise.size());
    for (int step = 0; step < 64; ++step) {
      auto next = decoder.Next();
      if (!next.ok() || !next.value().has_value()) break;
      (void)net::DecodeReplyFrame(*next.value());  // outcome irrelevant; no UB
    }
  }
}

TEST(NetFrameTest, WireAnswerDoubleBitsSurviveExactly) {
  net::WireAnswer answer = SampleAnswer();
  answer.log_posterior = -0.1 + -0.2;  // not representable; bits matter
  auto decoded = net::WireAnswer::Decode(answer.Encode());
  ASSERT_TRUE(decoded.ok());
  uint64_t sent_bits = 0, got_bits = 0;
  std::memcpy(&sent_bits, &answer.log_posterior, sizeof(sent_bits));
  std::memcpy(&got_bits, &decoded.value().log_posterior, sizeof(got_bits));
  EXPECT_EQ(sent_bits, got_bits);
  EXPECT_EQ(decoded.value().Encode(), answer.Encode());
}

// ---------- token bucket ----------

TEST(TokenBucketTest, BurstThenClipWithRetryHint) {
  using TimePoint = net::TokenBucket::TimePoint;
  const TimePoint t0{};
  net::TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.TryAcquire(t0));
  uint32_t retry_ms = 0;
  EXPECT_FALSE(bucket.TryAcquire(t0, &retry_ms));
  // Empty bucket at 2 tokens/s: one full token exists in 500 ms.
  EXPECT_EQ(retry_ms, 500u);
  // 600 ms later one token has refilled (and only one).
  const TimePoint t1 = t0 + std::chrono::milliseconds(600);
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));
}

TEST(TokenBucketTest, ZeroRateMeansUnlimited) {
  net::TokenBucket bucket(0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(net::TokenBucket::TimePoint{}));
  }
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  using TimePoint = net::TokenBucket::TimePoint;
  net::TokenBucket bucket(/*rate_per_sec=*/100.0, /*burst=*/2.0);
  const TimePoint t0{};
  EXPECT_TRUE(bucket.TryAcquire(t0));
  // An hour of refill still yields only `burst` tokens.
  const TimePoint t1 = t0 + std::chrono::hours(1);
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_TRUE(bucket.TryAcquire(t1));
  EXPECT_FALSE(bucket.TryAcquire(t1));
}

// ---------- TCP server end to end ----------

/// One shared small-scale IMDb + αDB for the socket tests (expensive).
class NetServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new ImdbBench(BuildImdbBench(0.2));
    workload_ = new std::vector<std::vector<std::string>>();
    const ImdbManifest& m = bench_->data.manifest;
    workload_->push_back({m.costar_a, m.costar_b});
    for (const char* qid : {"IQ1", "IQ6", "IQ13", "IQ15"}) {
      auto query = FindQuery(bench_->queries, qid);
      if (!query.ok()) continue;
      auto truth = GroundTruth(*bench_->data.db, *query.value());
      if (!truth.ok()) continue;
      Rng rng(7);
      auto examples = SampleExamples(truth.value(), 5, &rng);
      if (examples.size() >= 2) workload_->push_back(std::move(examples));
    }
  }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
    delete workload_;
    workload_ = nullptr;
  }

  /// Canonical wire bytes of the in-process answer for `examples`.
  static std::string LocalAnswerBytes(SquidService* service,
                                      const std::vector<std::string>& examples) {
    auto result = service->DiscoverSync(examples);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "";
    return net::WireAnswer::FromQuery(result.value()).Encode();
  }

  static ImdbBench* bench_;
  static std::vector<std::vector<std::string>>* workload_;
};
ImdbBench* NetServeFixture::bench_ = nullptr;
std::vector<std::vector<std::string>>* NetServeFixture::workload_ = nullptr;

TEST_F(NetServeFixture, SocketAnswersMatchInProcessAcrossThreadCounts) {
  for (size_t threads : {size_t(1), size_t(4)}) {
    ServeOptions options;
    options.threads = threads;
    SquidService service(bench_->adb.get(), options);
    net::TcpServer server(&service);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.port(), 0);
    auto client = net::TcpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const auto& examples : *workload_) {
      auto reply = client.value().Discover(examples);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOk);
      EXPECT_EQ(reply.value().answer.Encode(),
                LocalAnswerBytes(&service, examples))
          << "threads=" << threads;
    }
    server.Stop();
    EXPECT_FALSE(server.running());
  }
}

TEST_F(NetServeFixture, PipelinedRepliesCarryTheRightIds) {
  ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 64;
  SquidService service(bench_->adb.get(), options);
  net::TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Three rounds over the workload, all in flight at once on one
  // connection; replies may arrive in any order.
  std::map<uint64_t, const std::vector<std::string>*> by_id;
  for (int round = 0; round < 3; ++round) {
    for (const auto& examples : *workload_) {
      auto id = client.value().SendDiscover(examples);
      ASSERT_TRUE(id.ok());
      by_id[id.value()] = &examples;
    }
  }
  for (size_t i = 0; i < by_id.size(); ++i) {
    auto reply = client.value().ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOk);
    auto it = by_id.find(reply.value().request_id);
    ASSERT_NE(it, by_id.end());
    EXPECT_EQ(reply.value().answer.Encode(),
              LocalAnswerBytes(&service, *it->second));
  }
  server.Stop();
}

TEST_F(NetServeFixture, OpenLoopOverloadShedsWithRetryHints) {
  ServeOptions options;
  options.threads = 2;
  options.queue_capacity = 1;  // force the queue to back up instantly
  SquidService service(bench_->adb.get(), options);
  net::TcpServerOptions net_options;
  net_options.retry_after_ms = 25;
  net::TcpServer server(&service, net_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  const std::vector<std::string>& examples = (*workload_)[0];
  const std::string expected = LocalAnswerBytes(&service, examples);
  const size_t kRequests = 64;
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.value().SendDiscover(examples).ok());
  }
  size_t accepted = 0, shed = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    auto reply = client.value().ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply.value().kind == net::Reply::Kind::kOk) {
      ++accepted;
      // Shedding must not corrupt accepted answers.
      EXPECT_EQ(reply.value().answer.Encode(), expected);
    } else {
      ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOverloaded);
      EXPECT_EQ(reply.value().retry_after_ms, 25u);
      EXPECT_EQ(reply.value().reason, "server overloaded");
      ++shed;
    }
  }
  EXPECT_EQ(accepted + shed, kRequests);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(shed, 0u) << "a queue of 1 must shed a 64-deep pipeline";
  net::TcpServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, shed);
  EXPECT_EQ(stats.requests_admitted, accepted);
  server.Stop();
  // The service saw the shed requests as admission rejections too.
  EXPECT_EQ(service.stats().rejected, shed);
}

TEST_F(NetServeFixture, SessionRateLimitClipsWithoutTouchingTheService) {
  ServeOptions options;
  options.threads = 2;
  SquidService service(bench_->adb.get(), options);
  net::TcpServerOptions net_options;
  net_options.session_rate = 0.001;  // refills ~1 token per 1000 s: none here
  net_options.session_burst = 2;
  net::TcpServer server(&service, net_options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  const std::vector<std::string>& examples = (*workload_)[0];
  size_t ok = 0, limited = 0;
  for (int i = 0; i < 10; ++i) {
    auto reply = client.value().Discover(examples);
    ASSERT_TRUE(reply.ok());
    if (reply.value().kind == net::Reply::Kind::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOverloaded);
      EXPECT_EQ(reply.value().reason, "rate limited");
      EXPECT_GT(reply.value().retry_after_ms, 0u);
      ++limited;
    }
  }
  EXPECT_EQ(ok, 2u);  // exactly the burst
  EXPECT_EQ(limited, 8u);
  net::TcpServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_rate_limited, 8u);
  // Rate-limited requests never reached the service.
  EXPECT_EQ(service.stats().requests, 2u);
  // A second connection gets its own bucket.
  auto other = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(other.ok());
  auto reply = other.value().Discover(examples);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().kind, net::Reply::Kind::kOk);
  server.Stop();
}

TEST_F(NetServeFixture, GracefulDrainDeliversEveryAdmittedAnswer) {
  ServeOptions options;
  options.threads = 4;
  options.queue_capacity = 32;
  SquidService service(bench_->adb.get(), options);
  net::TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  const std::vector<std::string>& examples = (*workload_)[0];
  const std::string expected = LocalAnswerBytes(&service, examples);
  const size_t kRequests = 16;
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.value().SendDiscover(examples).ok());
  }
  // Stop while the pipeline is in flight: requests the server had already
  // admitted must still be answered (and flushed) before the socket closes;
  // requests caught behind the drain are shed with "shutting down".
  server.Stop();
  size_t ok = 0, shed = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    auto reply = client.value().ReadReply();
    if (!reply.ok()) break;  // server closed after draining what it read
    if (reply.value().kind == net::Reply::Kind::kOk) {
      EXPECT_EQ(reply.value().answer.Encode(), expected);
      ++ok;
    } else {
      ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOverloaded);
      EXPECT_EQ(reply.value().reason, "shutting down");
      ++shed;
    }
  }
  net::TcpServerStats stats = server.stats();
  // The drain guarantee, exactly: one flushed ok answer per admitted
  // request — nothing admitted was dropped on the floor.
  EXPECT_EQ(ok, stats.requests_admitted);
  EXPECT_EQ(shed, stats.rejected_shutdown);
}

TEST_F(NetServeFixture, ProtocolErrorsAnswerThenClose) {
  ServeOptions options;
  options.threads = 1;
  SquidService service(bench_->adb.get(), options);
  net::TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    const char* name;
    std::string bytes;
  };
  const Case cases[] = {
      {"garbage stream", std::string("\xEEgarbage-not-a-frame", 20)},
      {"response-type frame from a client",
       net::EncodeOverloadedFrame(1, 5, "confused client")},
      {"truncated request payload",
       net::EncodeFrame(net::FrameType::kDiscoverRequest, "abc")},
  };
  for (const Case& c : cases) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << c.name;
    ASSERT_EQ(::send(fd, c.bytes.data(), c.bytes.size(), 0),
              static_cast<ssize_t>(c.bytes.size()));
    // The server answers one error frame, then hangs up.
    net::FrameDecoder decoder;
    char buf[4096];
    bool got_error_frame = false, got_eof = false;
    for (int i = 0; i < 64 && !got_eof; ++i) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        got_eof = true;
        break;
      }
      decoder.Feed(buf, static_cast<size_t>(n));
      auto next = decoder.Next();
      if (next.ok() && next.value().has_value()) {
        auto reply = net::DecodeReplyFrame(*next.value());
        ASSERT_TRUE(reply.ok()) << c.name;
        EXPECT_EQ(reply.value().kind, net::Reply::Kind::kError) << c.name;
        EXPECT_EQ(reply.value().error_code, StatusCode::kCorruption) << c.name;
        got_error_frame = true;
      }
    }
    EXPECT_TRUE(got_error_frame) << c.name;
    EXPECT_TRUE(got_eof) << c.name;
    ::close(fd);
  }
  server.Stop();
  EXPECT_EQ(server.stats().protocol_errors, 3u);
  // Malformed traffic never reached the service.
  EXPECT_EQ(service.stats().requests, 0u);
}

TEST_F(NetServeFixture, StatsResponseCarriesEveryRegistryCounter) {
  // One stats surface: the StatsResponse counters are the counters and
  // gauges of the service's registry, and TcpServerStats and ServeStats
  // read those same metrics. A tiny cache budget forces evictions, so the
  // cache counters move too.
  obs::MetricsRegistry registry;  // declared first: outlives the service
  ServeOptions options;
  options.threads = 1;
  options.cache_bytes = 1024;
  options.metrics = &registry;
  SquidService service(bench_->adb.get(), options);
  net::TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const auto& examples : *workload_) {
    auto reply = client.value().Discover(examples);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOk);
  }
  auto stats_reply = client.value().Stats();
  ASSERT_TRUE(stats_reply.ok()) << stats_reply.status().ToString();
  ASSERT_EQ(stats_reply.value().kind, net::Reply::Kind::kStats);
  server.Stop();  // joins the event loop: every metric is final

  const std::map<std::string, uint64_t> wire(stats_reply.value().counters.begin(),
                                             stats_reply.value().counters.end());
  std::map<std::string, uint64_t> now;
  for (const auto& [name, value] : registry.CounterValues()) now[name] = value;
  for (const auto& [name, value] : registry.GaugeValues()) {
    ASSERT_GE(value, 0) << name;
    now[name] = static_cast<uint64_t>(value);
  }
  EXPECT_EQ(wire.size(), now.size());
  // The reply was counted before it was sent: the registry has since added
  // its frame and bytes, and Stop closed the connection.
  const size_t reply_bytes =
      net::EncodeStatsResponseFrame(stats_reply.value().request_id,
                                    stats_reply.value().counters,
                                    stats_reply.value().histograms)
          .size();
  EXPECT_EQ(wire.at("connections_open"), 1u);
  for (const auto& [name, value] : now) {
    ASSERT_EQ(wire.count(name), 1u) << name << " missing from StatsResponse";
    uint64_t expected = wire.at(name);
    if (name == "frames_sent") expected += 1;
    if (name == "bytes_sent") expected += reply_bytes;
    if (name == "connections_open") expected = 0;
    EXPECT_EQ(value, expected) << name;
  }

  const net::TcpServerStats net_stats = server.stats();
  EXPECT_EQ(net_stats.connections_accepted, now.at("connections_accepted"));
  EXPECT_EQ(net_stats.connections_refused, now.at("connections_refused"));
  EXPECT_EQ(net_stats.connections_open, now.at("connections_open"));
  EXPECT_EQ(net_stats.frames_received, now.at("frames_received"));
  EXPECT_EQ(net_stats.frames_sent, now.at("frames_sent"));
  EXPECT_EQ(net_stats.requests_admitted, now.at("requests_admitted"));
  EXPECT_EQ(net_stats.rejected_overload, now.at("rejected_overload"));
  EXPECT_EQ(net_stats.rejected_rate_limited, now.at("rejected_rate_limited"));
  EXPECT_EQ(net_stats.rejected_shutdown, now.at("rejected_shutdown"));
  EXPECT_EQ(net_stats.protocol_errors, now.at("protocol_errors"));
  EXPECT_EQ(net_stats.bytes_received, now.at("bytes_received"));
  EXPECT_EQ(net_stats.bytes_sent, now.at("bytes_sent"));
  EXPECT_EQ(net_stats.requests_admitted, workload_->size());
  EXPECT_EQ(net_stats.frames_sent, workload_->size() + 1);
  EXPECT_GT(net_stats.bytes_received, 0u);
  EXPECT_GT(net_stats.bytes_sent, reply_bytes);

  const ServeStats serve_stats = service.stats();
  EXPECT_EQ(serve_stats.hits, now.at("cache_hits"));
  EXPECT_EQ(serve_stats.misses, now.at("cache_misses"));
  EXPECT_EQ(serve_stats.evictions, now.at("cache_evictions"));
  EXPECT_EQ(serve_stats.inserts, now.at("cache_inserts"));
  EXPECT_EQ(serve_stats.uncacheable, now.at("cache_uncacheable"));
  EXPECT_EQ(serve_stats.entries, now.at("cache_entries"));
  EXPECT_EQ(serve_stats.bytes, now.at("cache_bytes"));
  EXPECT_EQ(serve_stats.requests, now.at("service_requests"));
  EXPECT_EQ(serve_stats.completed, now.at("service_completed"));
  EXPECT_EQ(serve_stats.failed, now.at("service_failed"));
  EXPECT_EQ(serve_stats.rejected, now.at("service_rejected"));
  EXPECT_EQ(serve_stats.completed, workload_->size());
  EXPECT_GT(serve_stats.evictions, 0u);
  EXPECT_EQ(serve_stats.bytes, service.cache()->ApproxBytes());
  EXPECT_EQ(serve_stats.entries, service.cache()->num_entries());
}

TEST_F(NetServeFixture, StatsFrameAndConnectionCapWork) {
  obs::MetricsRegistry registry;  // isolated histograms, declared first
  ServeOptions options;
  options.threads = 1;
  options.metrics = &registry;
  SquidService service(bench_->adb.get(), options);
  net::TcpServerOptions net_options;
  net_options.max_connections = 1;
  net::TcpServer server(&service, net_options);
  ASSERT_TRUE(server.Start().ok());

  auto first = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  auto reply = first.value().Discover((*workload_)[0]);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().kind, net::Reply::Kind::kOk);

  auto stats_reply = first.value().Stats();
  ASSERT_TRUE(stats_reply.ok());
  ASSERT_EQ(stats_reply.value().kind, net::Reply::Kind::kStats);
  std::map<std::string, uint64_t> counters(
      stats_reply.value().counters.begin(),
      stats_reply.value().counters.end());
  EXPECT_EQ(counters.at("requests_admitted"), 1u);
  EXPECT_EQ(counters.at("connections_open"), 1u);
  EXPECT_EQ(counters.at("service_completed"), 1u);

  // The versioned histogram section rides along: both server-side latency
  // distributions, with exactly the one completed request in them (the
  // decoder already enforced count == sum of buckets).
  std::map<std::string, obs::HistogramSnapshot> histograms;
  for (const auto& hist : stats_reply.value().histograms) {
    histograms[hist.name] = hist.snapshot;
  }
  ASSERT_EQ(histograms.size(), 2u);
  EXPECT_EQ(histograms.at("queue_wait_ns").count, 1u);
  EXPECT_EQ(histograms.at("request_ns").count, 1u);
  EXPECT_LE(histograms.at("request_ns").ValueAtQuantile(0.5),
            histograms.at("request_ns").max);

  // Over the cap: the TCP handshake may succeed (backlog), but the server
  // closes immediately — the first read sees EOF.
  auto second = net::TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  auto refused = second.value().Discover((*workload_)[0]);
  EXPECT_FALSE(refused.ok());
  EXPECT_GE(server.stats().connections_refused, 1u);
  server.Stop();
}

}  // namespace
}  // namespace squid
