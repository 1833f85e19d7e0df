#ifndef SQUID_STORAGE_SNAPSHOT_H_
#define SQUID_STORAGE_SNAPSHOT_H_

/// \file snapshot.h
/// \brief Versioned binary snapshot format of aligned typed extents, modeled
/// on DataSeries' typed extent chunks. A snapshot file is:
///
///     +--------------------------------------------------------------+
///     | 64-byte header: magic "SQDSNAP1", format version, file size, |
///     |   directory offset/count, directory checksum, byte-order     |
///     |   stamp, header checksum                                     |
///     +--------------------------------------------------------------+
///     | extent 0 payload (8-byte aligned, zero-padded to 8 bytes)    |
///     | extent 1 payload                                             |
///     | ...                                                          |
///     +--------------------------------------------------------------+
///     | extent directory: one 32-byte entry per extent               |
///     |   {type, offset, length, checksum}, ends at end-of-file      |
///     +--------------------------------------------------------------+
///
/// Writing is sequential and near-memcpy: each extent is a flat byte buffer
/// assembled by ExtentWriter (scalars + trivially-copyable arrays), flushed
/// once. Reading goes through SnapshotFile, which either mmaps the file or
/// streams it into one heap buffer, then validates header, directory, and
/// every extent checksum before handing out bounds-checked ExtentReaders.
///
/// Integrity: every byte of the file is covered by exactly one checksum —
/// bytes [0, 56) by the header checksum, the directory by the directory
/// checksum, and each extent (padding included; extents tile the region
/// between header and directory exactly) by its directory entry's checksum.
/// Any single-byte flip is therefore always detected: the checksum is
/// FNV-1a-64, whose per-byte step (xor then multiply by an odd prime) is a
/// bijection on 64-bit states.
///
/// Trust boundary: snapshots travel from build boxes to serve hosts. The
/// reader must fail with a clean Status on any malformed input — never
/// crash, never read out of bounds. All cursor reads are bounds-checked and
/// all counts are validated against the remaining payload before resizing.
///
/// Compatibility policy: the format version is bumped on any layout change;
/// readers reject versions they were not built for (no silent migration).
/// Snapshot bytes are deterministic: saving the same logical αDB always
/// produces the same file, which is what lets tests pin "round-trip
/// bit-identity" as save(load(save(x))) == save(x).

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "storage/inverted_index.h"
#include "storage/schema.h"
#include "storage/string_pool.h"
#include "storage/table.h"

namespace squid {

inline constexpr char kSnapshotMagic[8] = {'S', 'Q', 'D', 'S', 'N', 'A', 'P', '1'};
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr size_t kSnapshotHeaderBytes = 64;
inline constexpr size_t kSnapshotDirEntryBytes = 32;
inline constexpr size_t kSnapshotAlignment = 8;
/// Stamp rejecting cross-endian snapshots (payloads are memcpy'd native).
inline constexpr uint64_t kSnapshotByteOrderStamp = 0x0123456789ABCDEFull;

// Byte offsets of the header fields (tests use these to craft malformed
// headers and re-stamp the checksums that guard them).
inline constexpr size_t kSnapshotVersionOffset = 8;
inline constexpr size_t kSnapshotHeaderBytesOffset = 12;
inline constexpr size_t kSnapshotFileBytesOffset = 16;
inline constexpr size_t kSnapshotDirOffsetOffset = 24;
inline constexpr size_t kSnapshotExtentCountOffset = 32;
inline constexpr size_t kSnapshotDirChecksumOffset = 40;
inline constexpr size_t kSnapshotByteOrderOffset = 48;
inline constexpr size_t kSnapshotHeaderChecksumOffset = 56;

/// Extent payload kinds. Values are part of the on-disk format; never reuse
/// or renumber — add new kinds at the end.
enum class ExtentType : uint32_t {
  kManifest = 1,       // db name, table roster + roles, counts, build report
  kStringPool = 2,     // per-shard entry tables + string bytes
  kSchemas = 3,        // full Schema of every table
  kTableData = 4,      // column vectors of every table
  kInvertedIndex = 5,  // CSR slots/offsets/postings (probe table is rebuilt)
  kSchemaGraph = 6,    // relation kinds + property descriptors
  kPropertyStats = 7,  // per-descriptor PropertyStats
};

/// FNV-1a 64-bit over `len` bytes. Public so tests can re-stamp checksums
/// when crafting deliberately malformed files.
uint64_t SnapshotChecksum(const void* data, size_t len);

/// \brief Append-only byte buffer for one extent payload. Scalars are
/// memcpy'd little-endian-native; arrays of trivially copyable elements are
/// length-prefixed and 8-byte aligned so a reader can memcpy them back out.
class ExtentWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }

  /// u32 byte length + raw bytes (no alignment; strings are opaque bytes).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  /// u64 element count, padding to 8, then the elements verbatim.
  template <typename T>
  void Array(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    Align8();
    Raw(v.data(), v.size() * sizeof(T));
  }

  /// Zero-pads to the next 8-byte boundary.
  void Align8() {
    static const uint8_t kZero[kSnapshotAlignment] = {};
    size_t rem = buf_.size() % kSnapshotAlignment;
    if (rem != 0) Raw(kZero, kSnapshotAlignment - rem);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    if (n == 0) return;  // empty vectors/views may hand us a null pointer
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<uint8_t> buf_;
};

/// \brief Bounds-checked cursor over one extent's payload. Every read
/// validates the remaining length first; a short or overlong payload is a
/// Corruption error, never an out-of-bounds access.
class ExtentReader {
 public:
  ExtentReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> U8() { return Scalar<uint8_t>(); }
  Result<uint32_t> U32() { return Scalar<uint32_t>(); }
  Result<uint64_t> U64() { return Scalar<uint64_t>(); }
  Result<int64_t> I64() { return Scalar<int64_t>(); }
  Result<double> F64() { return Scalar<double>(); }

  /// Reads a length-prefixed string as a view into the snapshot buffer
  /// (valid while the SnapshotFile is alive).
  Result<std::string_view> Str() {
    SQUID_ASSIGN_OR_RETURN(uint32_t len, U32());
    SQUID_RETURN_NOT_OK(Need(len));
    std::string_view out(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return out;
  }

  /// Reads a length-prefixed array written by ExtentWriter::Array.
  template <typename T>
  Status Array(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    SQUID_ASSIGN_OR_RETURN(uint64_t count, U64());
    SQUID_RETURN_NOT_OK(Align8());
    if (count > (size_ - pos_) / sizeof(T)) {
      return Status::Corruption("snapshot extent: array of " +
                                std::to_string(count) + " x " +
                                std::to_string(sizeof(T)) +
                                " bytes exceeds extent payload");
    }
    out->resize(static_cast<size_t>(count));
    if (count != 0) {
      // Guarded: memcpy with a null destination (empty vector) is UB even
      // for zero bytes.
      std::memcpy(out->data(), data_ + pos_,
                  static_cast<size_t>(count) * sizeof(T));
    }
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return Status::OK();
  }

  Status Align8() {
    size_t rem = pos_ % kSnapshotAlignment;
    if (rem == 0) return Status::OK();
    SQUID_RETURN_NOT_OK(Need(kSnapshotAlignment - rem));
    pos_ += kSnapshotAlignment - rem;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  Result<T> Scalar() {
    SQUID_RETURN_NOT_OK(Need(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Status Need(size_t n) {
    if (n > size_ - pos_) {
      return Status::Corruption("snapshot extent truncated: need " +
                                std::to_string(n) + " bytes, " +
                                std::to_string(size_ - pos_) + " remain");
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief Assembles a snapshot image: extents are appended in order, then
/// Serialize() lays out header + payloads + directory and stamps checksums.
class SnapshotWriter {
 public:
  /// Starts a new extent; write its payload through the returned writer
  /// (valid until the next AddExtent / Serialize call).
  ExtentWriter* AddExtent(ExtentType type);

  /// The complete file image (deterministic for identical payload bytes).
  std::vector<uint8_t> Serialize() const;

  /// Serialize() + atomic-ish write (temp file + rename would need a dir
  /// fsync story; a plain write keeps the tool portable — callers verify
  /// with SnapshotFile::Open, which catches partial writes by checksum).
  Status WriteToFile(const std::string& path) const;

 private:
  std::vector<std::pair<ExtentType, std::unique_ptr<ExtentWriter>>> extents_;
};

/// \brief A validated, read-only snapshot image. Open() maps (or streams)
/// the file and verifies magic, version, byte order, sizes, alignment,
/// extent tiling, and every checksum before returning; a SnapshotFile in
/// hand means the raw container is structurally sound (extent payload
/// contents are validated by their loaders).
class SnapshotFile {
 public:
  struct ExtentInfo {
    ExtentType type = ExtentType::kManifest;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// Opens and fully validates `path`. `use_mmap` maps the file read-only
  /// where the platform supports it; otherwise (or on request) the file is
  /// streamed into a heap buffer.
  static Result<SnapshotFile> Open(const std::string& path, bool use_mmap = true);

  /// Validates an in-memory image (corruption tests, fuzzing).
  static Result<SnapshotFile> FromBytes(std::vector<uint8_t> bytes);

  /// Reader over the payload of the unique extent of `type` (Corruption
  /// when the snapshot holds zero or several).
  Result<ExtentReader> Extent(ExtentType type) const;

  const std::vector<ExtentInfo>& extents() const { return extents_; }
  uint64_t file_bytes() const { return size_; }
  uint32_t format_version() const { return format_version_; }
  bool mapped() const { return mapped_; }

 private:
  SnapshotFile() = default;

  /// Header/directory/extent validation over data_[0, size_).
  Status Validate();

  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint32_t format_version_ = 0;
  bool mapped_ = false;
  std::vector<uint8_t> owned_;     // streaming path (heap buffer)
  std::shared_ptr<void> mapping_;  // mmap path (unmaps on destruction)
  std::vector<ExtentInfo> extents_;
};

// ---------------------------------------------------------------------------
// Storage-layer extent serializers. The αDB layer (adb/adb_snapshot.cpp)
// composes these with its own extents into one file.
// ---------------------------------------------------------------------------

/// kStringPool payload: per shard, the entry strings in insertion order with
/// their folded symbols. Loading replays each shard's strings through
/// Intern(), which provably reproduces identical symbol assignment (a
/// symbol is (shard, per-shard insertion index), and a string's shard
/// depends only on its bytes).
void SnapshotSaveStringPool(const StringPool& pool, ExtentWriter* out);
Result<std::shared_ptr<StringPool>> SnapshotLoadStringPool(ExtentReader* in);

/// One Schema (relation name, typed attributes, PK, FKs, entity flag,
/// property/text-search attribute lists).
void SnapshotSaveSchema(const Schema& schema, ExtentWriter* out);
Result<Schema> SnapshotLoadSchema(ExtentReader* in);

/// One table's column vectors (the schema travels in the kSchemas extent;
/// `table` on load must already have been constructed from it, sharing the
/// restored pool). Restored cells are validated: vector lengths match the
/// row count and every string symbol is valid in the pool.
void SnapshotSaveTableData(const Table& table, ExtentWriter* out);
Status SnapshotLoadTableData(ExtentReader* in, Table* table);

}  // namespace squid

#endif  // SQUID_STORAGE_SNAPSHOT_H_
