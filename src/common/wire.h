#ifndef SQUID_COMMON_WIRE_H_
#define SQUID_COMMON_WIRE_H_

/// \file wire.h
/// \brief The self-delimiting binary primitive of the network framing and
/// its payloads: a one-byte tag, a 32-bit little-endian length, and
/// `length` payload bytes. src/net/ frames whole messages this way and
/// length-prefixes every string inside them (so adversarial strings cannot
/// forge field boundaries) — one scheme, one set of bounds-checked readers.
///
/// Writers append to a std::string and cannot fail. WireReader is the trust
/// boundary for bytes that arrived from outside the process: every read is
/// bounds-checked and malformed input yields a Status error, never UB.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace squid {
namespace wire {

/// Appends a 32-bit little-endian integer.
void AppendU32(std::string* out, uint32_t v);

/// Appends a 64-bit little-endian integer.
void AppendU64(std::string* out, uint64_t v);

/// Appends the IEEE-754 bit pattern of `v` as a little-endian u64 (exact:
/// decode returns the identical double, bit for bit).
void AppendDouble(std::string* out, double v);

/// Appends a u32 length prefix followed by the bytes of `s`.
void AppendString(std::string* out, std::string_view s);

/// Appends `tag`, a u32 length prefix, and the payload bytes — the
/// tag+length+payload cell scheme of net frames.
void AppendTagged(std::string* out, uint8_t tag, std::string_view payload);

/// \brief Bounds-checked sequential reader over untrusted bytes. Reads
/// advance a cursor; any read past the end returns Corruption and leaves
/// the cursor unchanged.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  /// u32 length prefix + bytes; the length is validated against the
  /// remaining input before anything is copied.
  Status ReadString(std::string* s);
  Status ReadTag(uint8_t* tag);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace wire
}  // namespace squid

#endif  // SQUID_COMMON_WIRE_H_
