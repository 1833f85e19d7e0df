#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/token_bucket.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace squid {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("net: fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("net: fcntl(F_SETFL)");
  }
  return Status::OK();
}

/// One answer frame produced by a worker, addressed to a connection by id
/// (the connection may be gone by the time the loop picks it up).
struct Completion {
  uint64_t conn_id = 0;
  std::string frame;
};

/// \brief The rendezvous between worker threads and the event loop. Workers
/// Push() finished answers and poke the loop's self-pipe; the loop swaps the
/// batch out under the lock. Owned by shared_ptr: worker callbacks capture
/// it, so a late completion after the server is destroyed lands in a closed
/// hub and is dropped instead of touching freed memory.
struct CompletionHub {
  std::mutex mu;
  std::vector<Completion> ready;
  int wake_fd = -1;  // write end of the loop's self-pipe
  bool closed = false;

  void Push(uint64_t conn_id, std::string frame) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return;
    ready.push_back(Completion{conn_id, std::move(frame)});
    Wake();
  }

  /// Pokes the self-pipe (callers hold mu). The pipe is non-blocking: a full
  /// pipe already guarantees a pending wakeup, so a short write is fine.
  void Wake() {
    if (wake_fd < 0) return;
    char byte = 1;
    ssize_t ignored = ::write(wake_fd, &byte, 1);
    (void)ignored;
  }

  void WakeLocked() {
    std::lock_guard<std::mutex> lock(mu);
    Wake();
  }

  /// Point of no return: after this, pushes are dropped. Called only after
  /// the loop thread has been joined.
  void CloseAndDiscard() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    if (wake_fd >= 0) ::close(wake_fd);
    wake_fd = -1;
    ready.clear();
  }
};

/// Per-connection state, owned by the event loop.
struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  TokenBucket bucket{0, 16};
  std::string out;       // pending response bytes
  size_t out_off = 0;    // prefix of `out` already written
  bool close_after_flush = false;  // protocol error: answer, flush, hang up
  bool dead = false;               // peer gone / write failed: reap

  bool WantsWrite() const { return out_off < out.size(); }
};

}  // namespace

struct TcpServer::Impl {
  SquidService* service;
  TcpServerOptions options;

  std::shared_ptr<CompletionHub> hub = std::make_shared<CompletionHub>();
  int listen_fd = -1;
  int wake_read_fd = -1;
  std::thread loop;
  std::atomic<bool> running{false};          // acquire/release handshake
  std::atomic<bool> stop_requested{false};   // with the loop thread
  // relaxed: written once at bind time before Start() publishes `running`
  // (release) — port() readers see it via that handshake or simply poll.
  std::atomic<uint16_t> bound_port{0};
  /// Requests admitted to the service whose answers the loop has not yet
  /// consumed from the hub; drain waits for this to hit zero.
  std::atomic<uint64_t> inflight{0};

  std::map<uint64_t, Conn> conns;
  uint64_t next_conn_id = 1;

  // TcpServerStats' metrics, in the service's registry so that its stats,
  // the StatsResponse frame and the text exposition read one store.
  obs::MetricsRegistry& metrics;
  obs::Counter* connections_accepted = metrics.GetCounter("connections_accepted");
  obs::Counter* connections_refused = metrics.GetCounter("connections_refused");
  obs::Gauge* connections_open = metrics.GetGauge("connections_open");
  obs::Counter* frames_received = metrics.GetCounter("frames_received");
  obs::Counter* frames_sent = metrics.GetCounter("frames_sent");
  obs::Counter* requests_admitted = metrics.GetCounter("requests_admitted");
  obs::Counter* rejected_overload = metrics.GetCounter("rejected_overload");
  obs::Counter* rejected_rate_limited = metrics.GetCounter("rejected_rate_limited");
  obs::Counter* rejected_shutdown = metrics.GetCounter("rejected_shutdown");
  obs::Counter* protocol_errors = metrics.GetCounter("protocol_errors");
  obs::Counter* bytes_received = metrics.GetCounter("bytes_received");
  obs::Counter* bytes_sent = metrics.GetCounter("bytes_sent");
  /// Answer-encoding latency (WireAnswer + frame bytes), recorded in the
  /// completion callback on whichever thread runs it.
  obs::LatencyHistogram* encode_hist =
      metrics.GetHistogram("squid_net_result_encode_ns");

  Impl(SquidService* service_in, TcpServerOptions options_in)
      : service(service_in),
        options(std::move(options_in)),
        metrics(service_in->metrics()) {}

  Status Bind();
  void Run();
  void Accept();
  void ReadConn(uint64_t conn_id, Conn& conn, bool draining);
  void HandleFrame(uint64_t conn_id, Conn& conn, Frame frame, bool draining);
  void FlushConn(Conn& conn);
  void SendFrame(Conn& conn, std::string frame);
  void ConsumeCompletions();
};

Status TcpServer::Impl::Bind() {
  listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Errno("net: socket");
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("net: bind_address is not a numeric IPv4 "
                                   "address: " +
                                   options.bind_address);
  }
  // lint: raw-ok (sockaddr_in -> sockaddr for the BSD socket ABI, not payload)
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("net: bind " + options.bind_address + ":" +
                 std::to_string(options.port));
  }
  if (::listen(listen_fd, options.listen_backlog) < 0) {
    return Errno("net: listen");
  }
  SQUID_RETURN_NOT_OK(SetNonBlocking(listen_fd));
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  // lint: raw-ok (sockaddr_in -> sockaddr for the BSD socket ABI, not payload)
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Errno("net: getsockname");
  }
  bound_port.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  return Status::OK();
}

void TcpServer::Impl::Accept() {
  for (;;) {
    int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: retry on next POLLIN
    }
    if (conns.size() >= options.max_connections) {
      // Count before closing: the peer observes the close (EOF) instantly,
      // and a stats() racing in behind it must already see the refusal.
      connections_refused->Add();
      ::close(cfd);
      continue;
    }
    if (!SetNonBlocking(cfd).ok()) {
      ::close(cfd);
      continue;
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = cfd;
    conn.decoder = FrameDecoder(options.max_frame_payload);
    conn.bucket = TokenBucket(options.session_rate, options.session_burst);
    conns.emplace(next_conn_id++, std::move(conn));
    connections_accepted->Add();
    connections_open->Set(static_cast<int64_t>(conns.size()));
  }
}

void TcpServer::Impl::SendFrame(Conn& conn, std::string frame) {
  conn.out += frame;
  frames_sent->Add();
}

void TcpServer::Impl::HandleFrame(uint64_t conn_id, Conn& conn, Frame frame,
                                  bool draining) {
  frames_received->Add();
  switch (frame.type) {
    case FrameType::kDiscoverRequest: {
      uint64_t request_id = 0;
      std::vector<std::string> examples;
      Status decoded =
          DecodeDiscoverRequest(frame.payload, &request_id, &examples);
      if (!decoded.ok()) {
        protocol_errors->Add();
        SendFrame(conn, EncodeDiscoverErrorFrame(0, decoded));
        conn.close_after_flush = true;
        return;
      }
      if (draining) {
        rejected_shutdown->Add();
        SendFrame(conn, EncodeOverloadedFrame(request_id,
                                              options.retry_after_ms,
                                              "shutting down"));
        return;
      }
      uint32_t retry_ms = options.retry_after_ms;
      if (!conn.bucket.TryAcquire(Clock::now(), &retry_ms)) {
        rejected_rate_limited->Add();
        SendFrame(conn,
                  EncodeOverloadedFrame(request_id, retry_ms, "rate limited"));
        return;
      }
      // Count before admitting: with threads == 1 the request runs inline
      // on this loop thread and its completion is pushed inside Submit, but
      // only this loop thread ever decrements, after HandleFrame returns.
      inflight.fetch_add(1, std::memory_order_relaxed);
      std::shared_ptr<CompletionHub> hub_ref = hub;
      obs::LatencyHistogram* encode_hist_ref = encode_hist;
      bool admitted = service->Submit(
          std::move(examples),
          [hub_ref, encode_hist_ref, conn_id,
           request_id](Result<AbducedQuery> result) {
            const uint64_t start_ns = obs::MonotonicNowNs();
            std::string reply =
                result.ok()
                    ? EncodeDiscoverOkFrame(request_id,
                                            WireAnswer::FromQuery(
                                                result.value()))
                    : EncodeDiscoverErrorFrame(request_id, result.status());
            encode_hist_ref->Record(obs::MonotonicNowNs() - start_ns);
            hub_ref->Push(conn_id, std::move(reply));
          });
      if (!admitted) {
        inflight.fetch_sub(1, std::memory_order_relaxed);
        rejected_overload->Add();
        SendFrame(conn, EncodeOverloadedFrame(request_id,
                                              options.retry_after_ms,
                                              "server overloaded"));
        return;
      }
      requests_admitted->Add();
      return;
    }
    case FrameType::kStatsRequest: {
      wire::WireReader reader(frame.payload);
      uint64_t request_id = 0;
      Status decoded = reader.ReadU64(&request_id);
      if (!decoded.ok() || !reader.AtEnd()) {
        protocol_errors->Add();
        SendFrame(conn, EncodeDiscoverErrorFrame(
                            0, Status::Corruption(
                                   "net: malformed stats request")));
        conn.close_after_flush = true;
        return;
      }
      // Every counter and gauge of the registry, plus the versioned
      // histogram section: the service's queue-wait and end-to-end latency
      // snapshots, so a remote client derives server-side percentiles from
      // the reply alone.
      std::vector<std::pair<std::string, uint64_t>> counters =
          metrics.CounterValues();
      for (const auto& [name, value] : metrics.GaugeValues()) {
        counters.emplace_back(name, value < 0 ? 0 : static_cast<uint64_t>(value));
      }
      ServeStats service_stats = service->stats();
      std::vector<WireHistogram> histograms;
      histograms.push_back({"queue_wait_ns", service_stats.queue_wait_ns});
      histograms.push_back({"request_ns", service_stats.request_ns});
      SendFrame(conn, EncodeStatsResponseFrame(request_id, counters, histograms));
      return;
    }
    case FrameType::kDiscoverOk:
    case FrameType::kDiscoverError:
    case FrameType::kOverloaded:
    case FrameType::kStatsResponse: {
      protocol_errors->Add();
      SendFrame(conn, EncodeDiscoverErrorFrame(
                          0, Status::Corruption(
                                 "net: client sent a response frame")));
      conn.close_after_flush = true;
      return;
    }
  }
}

void TcpServer::Impl::ReadConn(uint64_t conn_id, Conn& conn, bool draining) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_received->Add(static_cast<uint64_t>(n));
      conn.decoder.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // orderly peer close
      conn.dead = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;  // connection reset etc.
    break;
  }
  if (conn.close_after_flush) return;  // already poisoned; drain the socket
  for (;;) {
    Result<std::optional<Frame>> next = conn.decoder.Next();
    if (!next.ok()) {
      protocol_errors->Add();
      SendFrame(conn, EncodeDiscoverErrorFrame(0, next.status()));
      conn.close_after_flush = true;
      break;
    }
    if (!next.value().has_value()) break;
    HandleFrame(conn_id, conn, std::move(*next.value()), draining);
    if (conn.close_after_flush) break;
  }
}

void TcpServer::Impl::FlushConn(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                       conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      bytes_sent->Add(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT will fire
    conn.dead = true;
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush) conn.dead = true;
}

void TcpServer::Impl::ConsumeCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(hub->mu);
    batch.swap(hub->ready);
  }
  for (Completion& completion : batch) {
    inflight.fetch_sub(1, std::memory_order_relaxed);
    auto it = conns.find(completion.conn_id);
    if (it == conns.end()) continue;  // client hung up before the answer
    SendFrame(it->second, std::move(completion.frame));
    FlushConn(it->second);  // opportunistic: usually completes in one send
  }
}

void TcpServer::Impl::Run() {
  bool draining = false;
  Clock::time_point drain_deadline{};
  std::vector<pollfd> pfds;
  std::vector<uint64_t> ids;  // parallel to pfds; 0 = listen or wake pipe
  for (;;) {
    if (!draining && stop_requested.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options.drain_timeout_ms);
      if (listen_fd >= 0) {
        ::close(listen_fd);
        listen_fd = -1;
      }
    }
    ConsumeCompletions();
    if (draining) {
      bool flushed = true;
      for (auto& [id, conn] : conns) {
        if (conn.WantsWrite()) {
          flushed = false;
          break;
        }
      }
      if (inflight.load(std::memory_order_relaxed) == 0 && flushed) break;
      if (Clock::now() >= drain_deadline) break;  // force-close stragglers
    }
    pfds.clear();
    ids.clear();
    if (!draining && listen_fd >= 0) {
      pfds.push_back(pollfd{listen_fd, POLLIN, 0});
      ids.push_back(0);
    }
    pfds.push_back(pollfd{wake_read_fd, POLLIN, 0});
    ids.push_back(0);
    for (auto& [id, conn] : conns) {
      short events = POLLIN;
      if (conn.WantsWrite()) events |= POLLOUT;
      pfds.push_back(pollfd{conn.fd, events, 0});
      ids.push_back(id);
    }
    // The wake pipe interrupts the timeout; the tick only bounds how stale a
    // missed edge can get.
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
           draining ? 20 : 250);
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfds[i].fd == listen_fd && ids[i] == 0) {
        Accept();
        continue;
      }
      if (pfds[i].fd == wake_read_fd && ids[i] == 0) {
        char drain_buf[256];
        while (::read(wake_read_fd, drain_buf, sizeof(drain_buf)) > 0) {
        }
        continue;
      }
      auto it = conns.find(ids[i]);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        ReadConn(ids[i], conn, draining);
      }
      if (!conn.dead && (conn.WantsWrite())) FlushConn(conn);
    }
    ConsumeCompletions();
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.dead ||
          (it->second.close_after_flush && !it->second.WantsWrite())) {
        ::close(it->second.fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    connections_open->Set(static_cast<int64_t>(conns.size()));
  }
  for (auto& [id, conn] : conns) ::close(conn.fd);
  conns.clear();
  connections_open->Set(0);
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
}

TcpServer::TcpServer(SquidService* service, TcpServerOptions options)
    : impl_(std::make_unique<Impl>(service, std::move(options))) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (impl_->running.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("net: server already running");
  }
  SQUID_RETURN_NOT_OK(impl_->Bind());
  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    return Errno("net: pipe");
  }
  Status nb = SetNonBlocking(pipe_fds[0]);
  if (nb.ok()) nb = SetNonBlocking(pipe_fds[1]);
  if (!nb.ok()) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    return nb;
  }
  impl_->wake_read_fd = pipe_fds[0];
  {
    std::lock_guard<std::mutex> lock(impl_->hub->mu);
    impl_->hub->wake_fd = pipe_fds[1];
  }
  impl_->stop_requested.store(false, std::memory_order_release);
  impl_->running.store(true, std::memory_order_release);
  impl_->loop = std::thread([this] { impl_->Run(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!impl_->running.exchange(false, std::memory_order_acq_rel)) return;
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->hub->WakeLocked();
  if (impl_->loop.joinable()) impl_->loop.join();
  // Only now is it safe to retire the hub: the loop no longer reads from it,
  // so any worker callback still in flight must see `closed` and drop.
  impl_->hub->CloseAndDiscard();
  if (impl_->wake_read_fd >= 0) {
    ::close(impl_->wake_read_fd);
    impl_->wake_read_fd = -1;
  }
}

bool TcpServer::running() const {
  return impl_->running.load(std::memory_order_acquire);
}

uint16_t TcpServer::port() const {
  return impl_->bound_port.load(std::memory_order_relaxed);
}

TcpServerStats TcpServer::stats() const {
  const Impl& m = *impl_;
  TcpServerStats out;
  out.connections_accepted = m.connections_accepted->Value();
  out.connections_refused = m.connections_refused->Value();
  out.connections_open = static_cast<uint64_t>(m.connections_open->Value());
  out.frames_received = m.frames_received->Value();
  out.frames_sent = m.frames_sent->Value();
  out.requests_admitted = m.requests_admitted->Value();
  out.rejected_overload = m.rejected_overload->Value();
  out.rejected_rate_limited = m.rejected_rate_limited->Value();
  out.rejected_shutdown = m.rejected_shutdown->Value();
  out.protocol_errors = m.protocol_errors->Value();
  out.bytes_received = m.bytes_received->Value();
  out.bytes_sent = m.bytes_sent->Value();
  return out;
}

}  // namespace net
}  // namespace squid
