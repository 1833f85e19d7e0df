#include "storage/snapshot.h"

#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace squid {

namespace {

size_t RoundUp8(size_t n) { return (n + kSnapshotAlignment - 1) & ~(kSnapshotAlignment - 1); }

template <typename T>
T LoadAt(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreAt(std::vector<uint8_t>* buf, size_t off, T v) {
  std::memcpy(buf->data() + off, &v, sizeof(T));
}

constexpr uint32_t kMaxExtentType = static_cast<uint32_t>(ExtentType::kPropertyStats);

}  // namespace

uint64_t SnapshotChecksum(const void* data, size_t len) {
  // FNV-1a 64. Each step (xor a byte, multiply by an odd prime) is a
  // bijection on the 64-bit state, so any single-byte change always changes
  // the final hash — the property the corruption tests pin.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

ExtentWriter* SnapshotWriter::AddExtent(ExtentType type) {
  extents_.emplace_back(type, std::make_unique<ExtentWriter>());
  return extents_.back().second.get();
}

std::vector<uint8_t> SnapshotWriter::Serialize() const {
  size_t payload_bytes = 0;
  for (const auto& [type, w] : extents_) payload_bytes += RoundUp8(w->bytes().size());
  const size_t dir_offset = kSnapshotHeaderBytes + payload_bytes;
  const size_t file_bytes = dir_offset + extents_.size() * kSnapshotDirEntryBytes;

  std::vector<uint8_t> out(file_bytes, 0);
  size_t off = kSnapshotHeaderBytes;
  size_t dir = dir_offset;
  for (const auto& [type, w] : extents_) {
    const std::vector<uint8_t>& payload = w->bytes();
    if (!payload.empty()) std::memcpy(out.data() + off, payload.data(), payload.size());
    const size_t padded = RoundUp8(payload.size());
    StoreAt<uint32_t>(&out, dir, static_cast<uint32_t>(type));
    StoreAt<uint32_t>(&out, dir + 4, 0);  // reserved
    StoreAt<uint64_t>(&out, dir + 8, off);
    StoreAt<uint64_t>(&out, dir + 16, padded);
    StoreAt<uint64_t>(&out, dir + 24, SnapshotChecksum(out.data() + off, padded));
    off += padded;
    dir += kSnapshotDirEntryBytes;
  }

  std::memcpy(out.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
  StoreAt<uint32_t>(&out, kSnapshotVersionOffset, kSnapshotFormatVersion);
  StoreAt<uint32_t>(&out, kSnapshotHeaderBytesOffset,
                    static_cast<uint32_t>(kSnapshotHeaderBytes));
  StoreAt<uint64_t>(&out, kSnapshotFileBytesOffset, file_bytes);
  StoreAt<uint64_t>(&out, kSnapshotDirOffsetOffset, dir_offset);
  StoreAt<uint64_t>(&out, kSnapshotExtentCountOffset, extents_.size());
  StoreAt<uint64_t>(&out, kSnapshotDirChecksumOffset,
                    SnapshotChecksum(out.data() + dir_offset, file_bytes - dir_offset));
  StoreAt<uint64_t>(&out, kSnapshotByteOrderOffset, kSnapshotByteOrderStamp);
  StoreAt<uint64_t>(&out, kSnapshotHeaderChecksumOffset,
                    SnapshotChecksum(out.data(), kSnapshotHeaderChecksumOffset));
  return out;
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  const std::vector<uint8_t> image = Serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot create snapshot file '" + path + "'");
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out.good()) return Status::IoError("short write to snapshot file '" + path + "'");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SnapshotFile
// ---------------------------------------------------------------------------

Result<SnapshotFile> SnapshotFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open snapshot '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat snapshot '" + path + "'");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  SnapshotFile f;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      return Status::IoError("mmap failed for snapshot '" + path + "'");
    }
    f.mapping_ = std::shared_ptr<void>(map, [size](void* p) { ::munmap(p, size); });
    f.data_ = static_cast<const uint8_t*>(map);
    f.size_ = size;
  } else {
    ::close(fd);
  }
  SQUID_RETURN_NOT_OK(f.Validate());
  return f;
}

Result<SnapshotFile> SnapshotFile::FromBytes(std::vector<uint8_t> bytes) {
  SnapshotFile f;
  f.owned_ = std::move(bytes);
  f.data_ = f.owned_.data();
  f.size_ = f.owned_.size();
  SQUID_RETURN_NOT_OK(f.Validate());
  return f;
}

Status SnapshotFile::Validate() {
  if (size_ < kSnapshotHeaderBytes) {
    return Status::Corruption("snapshot truncated: " + std::to_string(size_) +
                              " bytes is smaller than the 64-byte header");
  }
  if (std::memcmp(data_, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Corruption("bad snapshot magic (not a SQuID snapshot?)");
  }
  if (SnapshotChecksum(data_, kSnapshotHeaderChecksumOffset) !=
      LoadAt<uint64_t>(data_ + kSnapshotHeaderChecksumOffset)) {
    return Status::Corruption("snapshot header checksum mismatch");
  }
  if (LoadAt<uint64_t>(data_ + kSnapshotByteOrderOffset) != kSnapshotByteOrderStamp) {
    return Status::NotSupported(
        "snapshot was written on a host with different byte order");
  }
  format_version_ = LoadAt<uint32_t>(data_ + kSnapshotVersionOffset);
  if (format_version_ != kSnapshotFormatVersion) {
    return Status::NotSupported(
        "snapshot format version " + std::to_string(format_version_) +
        "; this build reads version " + std::to_string(kSnapshotFormatVersion));
  }
  if (LoadAt<uint32_t>(data_ + kSnapshotHeaderBytesOffset) != kSnapshotHeaderBytes) {
    return Status::Corruption("snapshot header size field mismatch");
  }
  const uint64_t file_bytes = LoadAt<uint64_t>(data_ + kSnapshotFileBytesOffset);
  if (file_bytes != size_) {
    return Status::Corruption("snapshot file size mismatch: header records " +
                              std::to_string(file_bytes) + " bytes, file holds " +
                              std::to_string(size_) + " (truncated?)");
  }
  const uint64_t dir_offset = LoadAt<uint64_t>(data_ + kSnapshotDirOffsetOffset);
  const uint64_t extent_count = LoadAt<uint64_t>(data_ + kSnapshotExtentCountOffset);
  if (dir_offset < kSnapshotHeaderBytes || dir_offset > size_ ||
      dir_offset % kSnapshotAlignment != 0) {
    return Status::Corruption("snapshot directory offset out of range");
  }
  if ((size_ - dir_offset) % kSnapshotDirEntryBytes != 0 ||
      extent_count != (size_ - dir_offset) / kSnapshotDirEntryBytes) {
    return Status::Corruption("snapshot directory does not tile the file tail");
  }
  if (SnapshotChecksum(data_ + dir_offset, static_cast<size_t>(size_ - dir_offset)) !=
      LoadAt<uint64_t>(data_ + kSnapshotDirChecksumOffset)) {
    return Status::Corruption("snapshot directory checksum mismatch");
  }

  // Extents must tile [header end, directory start) exactly and in order —
  // together with the three checksums above this covers every byte of the
  // file, which is what makes the byte-flip fuzz test sound.
  extents_.clear();
  uint64_t expect = kSnapshotHeaderBytes;
  for (uint64_t i = 0; i < extent_count; ++i) {
    const uint8_t* e = data_ + dir_offset + i * kSnapshotDirEntryBytes;
    const uint32_t type = LoadAt<uint32_t>(e);
    const uint32_t reserved = LoadAt<uint32_t>(e + 4);
    const uint64_t offset = LoadAt<uint64_t>(e + 8);
    const uint64_t length = LoadAt<uint64_t>(e + 16);
    const uint64_t checksum = LoadAt<uint64_t>(e + 24);
    const std::string where = "snapshot extent " + std::to_string(i);
    if (reserved != 0) {
      return Status::Corruption(where + ": nonzero reserved directory field");
    }
    if (type == 0 || type > kMaxExtentType) {
      return Status::Corruption(where + ": unknown extent type " + std::to_string(type));
    }
    if (offset % kSnapshotAlignment != 0 || length % kSnapshotAlignment != 0) {
      return Status::Corruption(where + ": misaligned directory entry");
    }
    if (offset != expect) {
      return Status::Corruption(where + ": offset out of range (extents must tile " +
                                "the payload region in order)");
    }
    if (length > dir_offset - offset) {
      return Status::Corruption(where + ": length out of range");
    }
    if (SnapshotChecksum(data_ + offset, static_cast<size_t>(length)) != checksum) {
      return Status::Corruption(where + ": checksum mismatch");
    }
    expect = offset + length;
    extents_.push_back(ExtentInfo{static_cast<ExtentType>(type), offset, length});
  }
  if (expect != dir_offset) {
    return Status::Corruption("snapshot extents do not cover the payload region");
  }
  return Status::OK();
}

Result<ExtentReader> SnapshotFile::Extent(ExtentType type) const {
  const ExtentInfo* found = nullptr;
  for (const ExtentInfo& e : extents_) {
    if (e.type != type) continue;
    if (found != nullptr) {
      return Status::Corruption("snapshot holds duplicate extents of type " +
                                std::to_string(static_cast<uint32_t>(type)));
    }
    found = &e;
  }
  if (found == nullptr) {
    return Status::Corruption("snapshot is missing extent type " +
                              std::to_string(static_cast<uint32_t>(type)));
  }
  return ExtentReader(data_ + found->offset, static_cast<size_t>(found->length));
}

// ---------------------------------------------------------------------------
// StringPool
// ---------------------------------------------------------------------------

void SnapshotSaveStringPool(const StringPool& pool, ExtentWriter* out) {
  out->U32(static_cast<uint32_t>(StringPool::kNumShards));
  for (size_t s = 0; s < StringPool::kNumShards; ++s) {
    const uint32_t count = pool.ShardEntryCount(s);
    std::vector<Symbol> folded(count);
    std::vector<uint32_t> lens(count);
    std::vector<uint8_t> blob;
    size_t total = 0;
    for (uint32_t i = 0; i < count; ++i) {
      const Symbol id = (i << StringPool::kShardBits) | static_cast<Symbol>(s);
      total += pool.View(id).size();
    }
    blob.reserve(total);
    for (uint32_t i = 0; i < count; ++i) {
      const Symbol id = (i << StringPool::kShardBits) | static_cast<Symbol>(s);
      const std::string_view v = pool.View(id);
      folded[i] = pool.FoldedOf(id);
      lens[i] = static_cast<uint32_t>(v.size());
      blob.insert(blob.end(), v.begin(), v.end());
    }
    out->U32(count);
    out->Array(folded);
    out->Array(lens);
    out->Array(blob);
  }
}

Result<std::shared_ptr<StringPool>> SnapshotLoadStringPool(ExtentReader* in) {
  SQUID_ASSIGN_OR_RETURN(uint32_t num_shards, in->U32());
  if (num_shards != StringPool::kNumShards) {
    return Status::Corruption("snapshot string pool: shard count " +
                              std::to_string(num_shards) + " != " +
                              std::to_string(StringPool::kNumShards));
  }
  auto pool = std::make_shared<StringPool>();
  size_t total_entries = 0;
  for (size_t s = 0; s < StringPool::kNumShards; ++s) {
    SQUID_ASSIGN_OR_RETURN(uint32_t count, in->U32());
    std::vector<Symbol> folded;
    std::vector<uint32_t> lens;
    std::vector<uint8_t> blob;
    SQUID_RETURN_NOT_OK(in->Array(&folded));
    SQUID_RETURN_NOT_OK(in->Array(&lens));
    SQUID_RETURN_NOT_OK(in->Array(&blob));
    if (folded.size() != count || lens.size() != count) {
      return Status::Corruption("snapshot string pool: shard " + std::to_string(s) +
                                " table sizes disagree");
    }
    // Replay through Intern(): a symbol is (shard, per-shard insertion
    // index) and a string's shard depends only on its bytes, so replaying
    // each shard's strings in insertion order reproduces the exact ids.
    // Any divergence (reordered entries, strings hashed into a different
    // shard, broken folded links) is detected below.
    size_t off = 0;
    for (uint32_t i = 0; i < count; ++i) {
      if (lens[i] > blob.size() - off) {
        return Status::Corruption("snapshot string pool: shard " + std::to_string(s) +
                                  " string bytes overrun");
      }
      const std::string_view sv(reinterpret_cast<const char*>(blob.data()) + off,
                                lens[i]);
      off += lens[i];
      const Symbol expect =
          (static_cast<Symbol>(i) << StringPool::kShardBits) | static_cast<Symbol>(s);
      const Symbol got = pool->Intern(sv);
      if (got != expect) {
        return Status::Corruption("snapshot string pool: replay diverged at shard " +
                                  std::to_string(s) + " entry " + std::to_string(i));
      }
      if (pool->FoldedOf(got) != folded[i]) {
        return Status::Corruption("snapshot string pool: folded link mismatch at shard " +
                                  std::to_string(s) + " entry " + std::to_string(i));
      }
    }
    if (off != blob.size()) {
      return Status::Corruption("snapshot string pool: shard " + std::to_string(s) +
                                " has trailing string bytes");
    }
    total_entries += count;
  }
  if (pool->size() != total_entries) {
    return Status::Corruption("snapshot string pool: replay produced " +
                              std::to_string(pool->size()) + " entries, expected " +
                              std::to_string(total_entries));
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

namespace {

void SaveStringList(const std::vector<std::string>& v, ExtentWriter* out) {
  out->U32(static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) out->Str(s);
}

Status LoadStringList(ExtentReader* in, std::vector<std::string>* out) {
  SQUID_ASSIGN_OR_RETURN(uint32_t n, in->U32());
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SQUID_ASSIGN_OR_RETURN(std::string_view s, in->Str());
    out->emplace_back(s);
  }
  return Status::OK();
}

Result<ValueType> LoadColumnType(ExtentReader* in) {
  SQUID_ASSIGN_OR_RETURN(uint8_t t, in->U8());
  if (t != static_cast<uint8_t>(ValueType::kInt64) &&
      t != static_cast<uint8_t>(ValueType::kDouble) &&
      t != static_cast<uint8_t>(ValueType::kString)) {
    return Status::Corruption("snapshot schema: invalid column type " +
                              std::to_string(t));
  }
  return static_cast<ValueType>(t);
}

Result<bool> LoadBool(ExtentReader* in, const char* what) {
  SQUID_ASSIGN_OR_RETURN(uint8_t b, in->U8());
  if (b > 1) {
    return Status::Corruption(std::string("snapshot: ") + what + " flag not in {0, 1}");
  }
  return b == 1;
}

}  // namespace

void SnapshotSaveSchema(const Schema& schema, ExtentWriter* out) {
  out->Str(schema.relation_name());
  out->U32(static_cast<uint32_t>(schema.num_attributes()));
  for (const AttributeDef& a : schema.attributes()) {
    out->Str(a.name);
    out->U8(static_cast<uint8_t>(a.type));
  }
  out->U8(schema.primary_key().has_value() ? 1 : 0);
  if (schema.primary_key().has_value()) out->Str(*schema.primary_key());
  out->U32(static_cast<uint32_t>(schema.foreign_keys().size()));
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    out->Str(fk.attribute);
    out->Str(fk.ref_relation);
    out->Str(fk.ref_attribute);
  }
  out->U8(schema.is_entity() ? 1 : 0);
  SaveStringList(schema.property_attributes(), out);
  SaveStringList(schema.text_search_attributes(), out);
}

Result<Schema> SnapshotLoadSchema(ExtentReader* in) {
  SQUID_ASSIGN_OR_RETURN(std::string_view name, in->Str());
  SQUID_ASSIGN_OR_RETURN(uint32_t num_attrs, in->U32());
  std::vector<AttributeDef> attrs;
  attrs.reserve(num_attrs);
  for (uint32_t i = 0; i < num_attrs; ++i) {
    AttributeDef a;
    SQUID_ASSIGN_OR_RETURN(std::string_view attr_name, in->Str());
    a.name = std::string(attr_name);
    SQUID_ASSIGN_OR_RETURN(a.type, LoadColumnType(in));
    attrs.push_back(std::move(a));
  }
  Schema schema(std::string(name), std::move(attrs));
  SQUID_ASSIGN_OR_RETURN(bool has_pk, LoadBool(in, "schema primary-key"));
  if (has_pk) {
    SQUID_ASSIGN_OR_RETURN(std::string_view pk, in->Str());
    schema.set_primary_key(std::string(pk));
  }
  SQUID_ASSIGN_OR_RETURN(uint32_t num_fks, in->U32());
  for (uint32_t i = 0; i < num_fks; ++i) {
    ForeignKeyDef fk;
    SQUID_ASSIGN_OR_RETURN(std::string_view attr, in->Str());
    SQUID_ASSIGN_OR_RETURN(std::string_view rel, in->Str());
    SQUID_ASSIGN_OR_RETURN(std::string_view ref, in->Str());
    fk.attribute = std::string(attr);
    fk.ref_relation = std::string(rel);
    fk.ref_attribute = std::string(ref);
    schema.AddForeignKey(std::move(fk));
  }
  SQUID_ASSIGN_OR_RETURN(bool is_entity, LoadBool(in, "schema entity"));
  schema.set_entity(is_entity);
  std::vector<std::string> props, text;
  SQUID_RETURN_NOT_OK(LoadStringList(in, &props));
  SQUID_RETURN_NOT_OK(LoadStringList(in, &text));
  for (std::string& p : props) schema.AddPropertyAttribute(p);
  for (std::string& t : text) schema.AddTextSearchAttribute(t);
  return schema;
}

// ---------------------------------------------------------------------------
// Table data
// ---------------------------------------------------------------------------

void SnapshotSaveTableData(const Table& table, ExtentWriter* out) {
  out->U64(table.num_rows());
  out->U32(static_cast<uint32_t>(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    out->U8(static_cast<uint8_t>(col.type()));
    out->Array(col.valid_raw());
    switch (col.type()) {
      case ValueType::kInt64:
        out->Array(col.ints_raw());
        break;
      case ValueType::kDouble:
        out->Array(col.doubles_raw());
        break;
      case ValueType::kString:
        out->Array(col.syms_raw());
        break;
      case ValueType::kNull:
        break;
    }
  }
}

Status SnapshotLoadTableData(ExtentReader* in, Table* table) {
  SQUID_ASSIGN_OR_RETURN(uint64_t num_rows, in->U64());
  SQUID_ASSIGN_OR_RETURN(uint32_t num_cols, in->U32());
  if (num_cols != table->num_columns()) {
    return Status::Corruption("snapshot table '" + table->name() + "': " +
                              std::to_string(num_cols) + " columns on disk, schema has " +
                              std::to_string(table->num_columns()));
  }
  for (size_t c = 0; c < num_cols; ++c) {
    Column* col = table->mutable_column(c);
    SQUID_ASSIGN_OR_RETURN(uint8_t type, in->U8());
    if (type != static_cast<uint8_t>(col->type())) {
      return Status::Corruption("snapshot table '" + table->name() + "': column " +
                                std::to_string(c) + " type disagrees with its schema");
    }
    std::vector<uint8_t> valid;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<Symbol> syms;
    SQUID_RETURN_NOT_OK(in->Array(&valid));
    switch (col->type()) {
      case ValueType::kInt64:
        SQUID_RETURN_NOT_OK(in->Array(&ints));
        break;
      case ValueType::kDouble:
        SQUID_RETURN_NOT_OK(in->Array(&doubles));
        break;
      case ValueType::kString:
        SQUID_RETURN_NOT_OK(in->Array(&syms));
        break;
      case ValueType::kNull:
        return Status::Corruption("snapshot table '" + table->name() +
                                  "': null-typed column");
    }
    SQUID_RETURN_NOT_OK(col->SnapshotRestore(std::move(valid), std::move(ints),
                                             std::move(doubles), std::move(syms)));
  }
  return table->FinishColumnFill(static_cast<size_t>(num_rows));
}

// ---------------------------------------------------------------------------
// InvertedColumnIndex
// ---------------------------------------------------------------------------

static_assert(sizeof(Posting) == 12, "Posting layout is part of the snapshot format");

void InvertedColumnIndex::SnapshotSave(ExtentWriter* out) const {
  out->U64(key_of_slot_.size());
  out->Array(key_of_slot_);
  out->Array(offsets_);
  out->Array(postings_);
}

Result<InvertedColumnIndex> InvertedColumnIndex::SnapshotLoad(
    ExtentReader* in, std::shared_ptr<const StringPool> pool, const Database& db) {
  InvertedColumnIndex index;
  SQUID_ASSIGN_OR_RETURN(uint64_t num_keys, in->U64());
  SQUID_RETURN_NOT_OK(in->Array(&index.key_of_slot_));
  SQUID_RETURN_NOT_OK(in->Array(&index.offsets_));
  SQUID_RETURN_NOT_OK(in->Array(&index.postings_));
  if (index.key_of_slot_.size() != num_keys ||
      index.offsets_.size() != index.key_of_slot_.size() + 1) {
    return Status::Corruption("snapshot inverted index: CSR array sizes disagree");
  }

  std::vector<bool> seen(pool->IdBound(), false);
  for (uint32_t slot = 0; slot < index.key_of_slot_.size(); ++slot) {
    const Symbol folded = index.key_of_slot_[slot];
    if (!pool->IsValidSymbol(folded) || pool->FoldedOf(folded) != folded) {
      return Status::Corruption("snapshot inverted index: slot " + std::to_string(slot) +
                                " key is not a valid folded symbol");
    }
    if (seen[folded]) {
      return Status::Corruption("snapshot inverted index: duplicate slot key");
    }
    seen[folded] = true;
  }

  uint32_t prev = 0;
  for (uint32_t o : index.offsets_) {
    if (o < prev) {
      return Status::Corruption("snapshot inverted index: offsets not monotone");
    }
    prev = o;
  }
  if (index.offsets_.front() != 0 ||
      index.offsets_.back() != index.postings_.size()) {
    return Status::Corruption(
        "snapshot inverted index: offsets disagree with the postings array");
  }

  // Vet every posting against the restored database: it must name an
  // existing (relation, attribute) pair and an in-range row. Downstream
  // code dereferences these without further checks.
  std::unordered_map<Symbol, uint64_t> rows_of_rel;
  std::unordered_set<uint64_t> rel_attr_ok;
  for (const std::string& name : db.TableNames()) {
    const Symbol rel = pool->Find(name);
    if (rel == kNoSymbol) continue;
    auto table = db.GetTable(name);
    if (!table.ok()) continue;
    rows_of_rel[rel] = table.value()->num_rows();
    for (const AttributeDef& a : table.value()->schema().attributes()) {
      const Symbol attr = pool->Find(a.name);
      if (attr != kNoSymbol) {
        rel_attr_ok.insert((static_cast<uint64_t>(rel) << 32) | attr);
      }
    }
  }
  for (const Posting& p : index.postings_) {
    auto it = rows_of_rel.find(p.relation);
    if (it == rows_of_rel.end() ||
        rel_attr_ok.count((static_cast<uint64_t>(p.relation) << 32) | p.attribute) == 0 ||
        p.row >= it->second) {
      return Status::Corruption(
          "snapshot inverted index: posting references an unknown relation/attribute "
          "or an out-of-range row");
    }
  }

  // The probe table is derived state: rebuild it as Build() does.
  index.pool_ = std::move(pool);
  index.BuildProbeTable();
  return index;
}

}  // namespace squid
