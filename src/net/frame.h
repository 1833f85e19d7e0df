#ifndef SQUID_NET_FRAME_H_
#define SQUID_NET_FRAME_H_

/// \file frame.h
/// \brief The serve wire protocol: length-prefixed binary frames carrying
/// Discover requests and responses between a TcpServer and its clients.
///
/// Every frame is one tag+length+payload cell of the shared wire scheme
/// (common/wire.h, self-delimiting):
///
///   [ u8 type ][ u32 payload length, little-endian ][ payload bytes ]
///
/// Every payload begins with a client-chosen u64 request id, echoed in the
/// response, so clients may pipeline any number of requests per connection
/// and match answers arriving out of order (workers finish in any order).
///
/// Frame types and payloads (after the request id):
///
///   DiscoverRequest  -> u32 example count, then count length-prefixed
///                       example strings
///   DiscoverOk       <- a WireAnswer (the abduced query, field by field)
///   DiscoverError    <- u32 StatusCode + message string
///   Overloaded       <- u32 retry-after hint (ms) + reason string; sent
///                       instead of admitting when the request queue is
///                       full, the session is over its rate limit, or the
///                       server is draining — the load-shedding contract
///   StatsRequest     -> (empty)
///   StatsResponse    <- u32 count, then count (name string, u64 value)
///                       counter pairs; then a mandatory versioned
///                       histogram section:
///                       u32 version (= kStatsHistogramVersion), u32
///                       histogram count, and per histogram its name, u64
///                       total/sum/max, and a sparse list of (u32 bucket
///                       index, u64 count) pairs with strictly increasing
///                       indexes — the obs::HistogramSnapshot bucket space
///                       (obs/metrics.h), so clients derive p50/p99 from
///                       the reply alone
///
/// Decoding is a trust boundary: truncated, oversized, or garbage frames
/// yield a Status error (Corruption), never UB. The parity contract: a
/// WireAnswer decoded from the wire re-encodes to bytes identical to a
/// WireAnswer built from the same in-process DiscoverSync result.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/wire.h"
#include "obs/metrics.h"

namespace squid {

struct AbducedQuery;

namespace net {

/// Frame type tags (the u8 leading each frame).
enum class FrameType : uint8_t {
  kDiscoverRequest = 1,
  kDiscoverOk = 2,
  kDiscoverError = 3,
  kOverloaded = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
};

/// Largest payload either side accepts; a declared length beyond this is a
/// framing error (protects the peer from a 4 GiB allocation on 5 bytes of
/// garbage).
constexpr size_t kMaxFramePayload = 4u << 20;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kDiscoverRequest;
  std::string payload;
};

/// \brief Incremental frame decoder over a byte stream (one per
/// connection). Feed() appends received bytes; Next() pops complete frames.
/// A malformed stream (unknown type, oversized declared length) is a
/// permanent error: every later Next() returns the same failure, and the
/// caller is expected to drop the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t n) { buffer_.append(data, n); }

  /// ok(frame) = one frame consumed from the buffer; ok(nullopt) = the
  /// buffered bytes are a (possibly empty) frame prefix, feed more;
  /// error = the stream is not a frame sequence.
  Result<std::optional<Frame>> Next();

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_;  // non-const so decoders stay movable
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already returned as frames
  Status error_ = Status::OK();
};

/// \brief The response fields of one abduced query, as serialized on the
/// wire. Carries the discovery *result* (relation, projection, SQL in both
/// schemas, exact posterior bits, filter counts, entity keys) — not the
/// volatile per-call work counters in DiscoverStats. Encode() is canonical:
/// byte-identical answers <=> identical Encode() bytes, which is what the
/// socket parity tests compare.
struct WireAnswer {
  std::string entity_relation;
  std::string projection_attr;
  /// ToSql renderings of the abduced query in αDB and original schemas.
  std::string adb_sql;
  std::string original_sql;
  /// Exact IEEE-754 bits round-trip over the wire.
  double log_posterior = 0;
  uint32_t filters_included = 0;
  uint32_t filters_total = 0;
  /// Value::ToString renderings of the disambiguated entity keys.
  std::vector<std::string> entity_keys;

  static WireAnswer FromQuery(const AbducedQuery& query);

  std::string Encode() const;
  static Result<WireAnswer> Decode(std::string_view payload);
};

/// Version tag of the StatsResponse histogram section. A decoder rejects
/// versions it does not know (Corruption), so the section can evolve.
constexpr uint32_t kStatsHistogramVersion = 1;

/// One named latency distribution carried in a StatsResponse.
struct WireHistogram {
  std::string name;
  obs::HistogramSnapshot snapshot;
};

// --- frame builders (cannot fail) ---

std::string EncodeFrame(FrameType type, std::string_view payload);
std::string EncodeDiscoverRequestFrame(uint64_t request_id,
                                       const std::vector<std::string>& examples);
std::string EncodeDiscoverOkFrame(uint64_t request_id, const WireAnswer& answer);
std::string EncodeDiscoverErrorFrame(uint64_t request_id, const Status& status);
std::string EncodeOverloadedFrame(uint64_t request_id, uint32_t retry_after_ms,
                                  std::string_view reason);
std::string EncodeStatsRequestFrame(uint64_t request_id);
std::string EncodeStatsResponseFrame(
    uint64_t request_id,
    const std::vector<std::pair<std::string, uint64_t>>& counters);
/// StatsResponse with the versioned histogram section appended.
std::string EncodeStatsResponseFrame(
    uint64_t request_id,
    const std::vector<std::pair<std::string, uint64_t>>& counters,
    const std::vector<WireHistogram>& histograms);

// --- payload decoders (trust boundary: Status errors, never UB) ---

Status DecodeDiscoverRequest(std::string_view payload, uint64_t* request_id,
                             std::vector<std::string>* examples);

/// \brief Any server->client frame, decoded.
struct Reply {
  enum class Kind { kOk, kError, kOverloaded, kStats };
  Kind kind = Kind::kError;
  uint64_t request_id = 0;
  WireAnswer answer;                                     ///< kOk
  StatusCode error_code = StatusCode::kInternal;         ///< kError
  std::string error_message;                             ///< kError
  uint32_t retry_after_ms = 0;                           ///< kOverloaded
  std::string reason;                                    ///< kOverloaded
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< kStats
  /// kStats: decoded histogram section. Every snapshot satisfies
  /// count == sum of buckets — the decoder enforces it.
  std::vector<WireHistogram> histograms;

  /// The remote error as a Status (kError replies).
  Status ToStatus() const { return Status(error_code, error_message); }
};

Result<Reply> DecodeReplyFrame(const Frame& frame);

}  // namespace net
}  // namespace squid

#endif  // SQUID_NET_FRAME_H_
