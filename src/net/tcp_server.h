#ifndef SQUID_NET_TCP_SERVER_H_
#define SQUID_NET_TCP_SERVER_H_

/// \file tcp_server.h
/// \brief Socket front end for a SquidService: a single-threaded poll()
/// event loop multiplexing many client connections onto one service.
///
///   clients ==frames==> [event loop] --Submit--> ThreadPool workers
///                            ^                          |
///                            +-- completion hub (wake pipe) <- answers
///
/// The event loop never waits for room or for an answer:
///  - each decoded Discover frame is admitted via the service's
///    non-blocking Submit; a shed request (queue_capacity requests already
///    waiting) yields an immediate `overloaded` frame with a retry-after
///    hint,
///  - per-connection token buckets clip sessions that exceed the configured
///    rate, again answering `overloaded` instead of queueing,
///  - workers deliver answers through a completion hub that wakes the loop
///    via a self-pipe; the loop writes response frames out, handling
///    partial writes with POLLOUT interest.
///
/// With ServeOptions::threads > 1 the loop never runs request work. With
/// threads == 1 there are no workers: Submit runs the request inline, so
/// the loop thread computes each answer before it reads the next frame,
/// and one slow request stalls every connection for its duration.
///
/// Shutdown drains gracefully: Stop() stops accepting, sheds new requests
/// with `overloaded (shutting down)`, waits (bounded by drain_timeout_ms)
/// until every admitted request's answer has been flushed, then closes.
///
/// Answers on the wire are byte-identical to in-process DiscoverSync for
/// the same examples (see net/frame.h WireAnswer).

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/frame.h"
#include "serve/squid_service.h"

namespace squid {
namespace net {

struct TcpServerOptions {
  /// Numeric IPv4 address to bind (loopback by default: the serve tier sits
  /// behind its own edge).
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the chosen port from TcpServer::port().
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Accepts beyond this are immediately closed (counted as refused).
  size_t max_connections = 256;
  /// Framing guard per connection (declared payloads beyond this are a
  /// protocol error).
  size_t max_frame_payload = kMaxFramePayload;
  /// Hint sent with queue-full and shutdown rejections.
  uint32_t retry_after_ms = 50;
  /// Per-session token bucket: Discover requests per second (0 = no limit)
  /// and burst capacity.
  double session_rate = 0;
  double session_burst = 16;
  /// Stop() waits at most this long for admitted requests to finish and
  /// their answers to flush before force-closing.
  uint32_t drain_timeout_ms = 5000;
};

/// The server's counters, read from the service's registry (metric names
/// as the fields; connections_open is a gauge). Servers over one service
/// count together.
struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< over max_connections
  uint64_t connections_open = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t requests_admitted = 0;
  uint64_t rejected_overload = 0;      ///< shed by SquidService::Submit
  uint64_t rejected_rate_limited = 0;  ///< session token bucket empty
  uint64_t rejected_shutdown = 0;      ///< arrived while draining
  uint64_t protocol_errors = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
};

/// \brief The server. Start() binds, listens, and spawns the event-loop
/// thread; Stop() (or destruction) drains and joins it. All public methods
/// are safe from any thread.
class TcpServer {
 public:
  explicit TcpServer(SquidService* service, TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  Status Start();
  void Stop();
  bool running() const;

  /// The bound port (valid after a successful Start; resolves port 0).
  uint16_t port() const;

  TcpServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace squid

#endif  // SQUID_NET_TCP_SERVER_H_
