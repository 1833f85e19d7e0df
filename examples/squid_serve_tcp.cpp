// Serve mode over a socket, end to end: generate a synthetic IMDb database,
// build the αDB once, start a SquidService behind the TCP front end
// (src/net/), and answer length-prefixed binary Discover frames.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/squid_serve_tcp                 # serve until stdin EOF
//   ./build/examples/squid_serve_tcp --smoke         # self-driving check
//
// Flags: --scale=0.25 --threads=0 --queue=64 --cache-mb=8 --port=0
//        --rate=0 --burst=16 --metrics-dump=0 --smoke
// (--port=0 picks an ephemeral port, printed on stderr; --rate is the
// per-connection token-bucket rate, 0 = unlimited; --metrics-dump=N dumps
// the service's registry — every cache, service and server counter, gauge
// and histogram — as Prometheus-style text to stderr every N seconds while
// serving, and once at shutdown; in smoke mode, once after the rounds).
//
// The smoke mode connects a client to the freshly started server, runs the
// same Discover twice (cold then cached), asserts the answer matches the
// in-process DiscoverSync byte for byte, and fetches the counter frame
// (including its server-side latency histogram section).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "adb/abduction_ready_db.h"
#include "datagen/imdb_generator.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/squid_service.h"

using namespace squid;

namespace {

double FlagOr(int argc, char** argv, const char* name, double fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "squid_serve_tcp: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

void DumpMetrics(const obs::MetricsRegistry& metrics, const char* when) {
  std::string text = metrics.DumpText();
  std::fprintf(stderr, "--- metrics (%s) ---\n%s--- end metrics ---\n", when,
               text.c_str());
}

/// Dumps the metrics registry to stderr every `period_s` seconds until
/// Stop() — the operator-facing live view of the serve histograms.
class MetricsDumper {
 public:
  MetricsDumper(const obs::MetricsRegistry* metrics, double period_s) {
    thread_ = std::thread([this, metrics, period_s] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        cv_.wait_for(lock, std::chrono::duration<double>(period_s));
        if (stop_) break;
        DumpMetrics(*metrics, "periodic");
      }
    });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  const double scale = FlagOr(argc, argv, "scale", 0.25);
  const bool smoke = HasFlag(argc, argv, "smoke");
  const double metrics_dump_s = FlagOr(argc, argv, "metrics-dump", 0);

  ImdbOptions options;
  options.scale = scale;
  auto data = GenerateImdb(options);
  if (!data.ok()) return Fail("generate", data.status());
  auto adb = AbductionReadyDb::Build(*data.value().db);
  if (!adb.ok()) return Fail("adb", adb.status());

  ServeOptions serve;
  serve.threads = static_cast<size_t>(FlagOr(argc, argv, "threads", 0));
  serve.queue_capacity = static_cast<size_t>(FlagOr(argc, argv, "queue", 64));
  serve.cache_bytes =
      static_cast<size_t>(FlagOr(argc, argv, "cache-mb", 8) * (1 << 20));
  SquidService service(adb.value().get(), serve);

  net::TcpServerOptions net_options;
  net_options.port = static_cast<uint16_t>(FlagOr(argc, argv, "port", 0));
  net_options.session_rate = FlagOr(argc, argv, "rate", 0);
  net_options.session_burst = FlagOr(argc, argv, "burst", 16);
  net::TcpServer server(&service, net_options);
  Status started = server.Start();
  if (!started.ok()) return Fail("start", started);
  std::fprintf(stderr,
               "squid_serve_tcp: listening on %s:%u (%zu worker thread(s), "
               "queue %zu)\n",
               net_options.bind_address.c_str(), server.port(),
               service.threads(), serve.queue_capacity);

  if (smoke) {
    const ImdbManifest& m = data.value().manifest;
    const std::vector<std::string> examples = {m.costar_a, m.costar_b};

    auto client = net::TcpClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) return Fail("connect", client.status());

    // The parity contract: the socket answer re-encodes to the same bytes
    // as the in-process answer.
    auto local = service.DiscoverSync(examples);
    if (!local.ok()) return Fail("local discover", local.status());
    const std::string local_bytes =
        net::WireAnswer::FromQuery(local.value()).Encode();

    for (int round = 0; round < 2; ++round) {  // cold, then via warm cache
      auto reply = client.value().Discover(examples);
      if (!reply.ok()) return Fail("discover", reply.status());
      if (reply.value().kind != net::Reply::Kind::kOk) {
        std::fprintf(stderr, "smoke: FAILED (non-ok reply kind)\n");
        return 1;
      }
      if (reply.value().answer.Encode() != local_bytes) {
        std::fprintf(stderr,
                     "smoke: FAILED (socket answer differs from in-process "
                     "DiscoverSync)\n");
        return 1;
      }
      std::fprintf(stderr, "smoke: round %d ok: %s\n", round,
                   reply.value().answer.original_sql.c_str());
    }

    auto stats_reply = client.value().Stats();
    if (!stats_reply.ok()) return Fail("stats", stats_reply.status());
    for (const auto& [name, value] : stats_reply.value().counters) {
      std::fprintf(stderr, "smoke: counter %s=%llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    }
    // The stats frame must carry the server-side latency histograms, and
    // the end-to-end histogram must have seen every completed request
    // (2 socket rounds + the in-process DiscoverSync above).
    bool saw_request_hist = false;
    for (const auto& hist : stats_reply.value().histograms) {
      std::fprintf(stderr, "smoke: histogram %s count=%llu p99=%lluns\n",
                   hist.name.c_str(),
                   static_cast<unsigned long long>(hist.snapshot.count),
                   static_cast<unsigned long long>(
                       hist.snapshot.ValueAtQuantile(0.99)));
      if (hist.name == "request_ns" && hist.snapshot.count >= 3) {
        saw_request_hist = true;
      }
    }
    if (!saw_request_hist) {
      std::fprintf(stderr,
                   "smoke: FAILED (stats frame missing request_ns histogram "
                   "with >= 3 samples)\n");
      return 1;
    }
    if (metrics_dump_s > 0) DumpMetrics(service.metrics(), "smoke");

    server.Stop();
    net::TcpServerStats net_stats = server.stats();
    if (net_stats.requests_admitted != 2 || net_stats.protocol_errors != 0) {
      std::fprintf(stderr,
                   "smoke: FAILED (admitted=%llu protocol_errors=%llu)\n",
                   static_cast<unsigned long long>(net_stats.requests_admitted),
                   static_cast<unsigned long long>(net_stats.protocol_errors));
      return 1;
    }
    std::fprintf(stderr, "smoke: OK\n");
    return 0;
  }

  // Foreground mode: serve until stdin closes (ctrl-D), then drain.
  std::fprintf(stderr, "squid_serve_tcp: press ctrl-D to stop\n");
  std::unique_ptr<MetricsDumper> dumper;
  if (metrics_dump_s > 0) {
    dumper = std::make_unique<MetricsDumper>(&service.metrics(), metrics_dump_s);
  }
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  if (dumper != nullptr) {
    dumper->Stop();
    DumpMetrics(service.metrics(), "shutdown");
  }
  net::TcpServerStats net_stats = server.stats();
  std::fprintf(stderr,
               "squid_serve_tcp: served %llu frames (%llu admitted, "
               "%llu shed)\n",
               static_cast<unsigned long long>(net_stats.frames_received),
               static_cast<unsigned long long>(net_stats.requests_admitted),
               static_cast<unsigned long long>(net_stats.rejected_overload +
                                               net_stats.rejected_rate_limited +
                                               net_stats.rejected_shutdown));
  return 0;
}
