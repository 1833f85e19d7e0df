#include "storage/inverted_index.h"

#include <utility>

namespace squid {

Result<InvertedColumnIndex> InvertedColumnIndex::Build(const Database& db) {
  InvertedColumnIndex index;
  std::shared_ptr<StringPool> pool = db.pool();

  // Pass 1: collect (folded key, posting) pairs in deterministic scan order.
  std::vector<std::pair<Symbol, Posting>> raw;
  for (const std::string& name : db.TableNames()) {
    SQUID_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    std::vector<std::string> attrs = table->schema().text_search_attributes();
    if (attrs.empty() && table->schema().is_entity()) {
      for (const auto& a : table->schema().attributes()) {
        if (a.type == ValueType::kString) attrs.push_back(a.name);
      }
    }
    if (table->num_rows() > 0xFFFFFFFFull) {
      return Status::InvalidArgument("relation '" + name +
                                     "' exceeds 2^32 rows; Posting::row is u32");
    }
    const bool same_pool = table->pool().get() == pool.get();
    const Symbol rel_sym = pool->Intern(name);
    for (const std::string& attr : attrs) {
      SQUID_ASSIGN_OR_RETURN(const Column* col, table->ColumnByName(attr));
      if (col->type() != ValueType::kString) continue;
      const Symbol attr_sym = pool->Intern(attr);
      for (size_t r = 0; r < col->size(); ++r) {
        if (col->IsNull(r)) continue;
        // Same-pool cells already carry their symbol; cells of a table
        // attached from another database intern through this pool.
        Symbol sym = same_pool ? col->SymbolAt(r) : pool->Intern(col->StringAt(r));
        Symbol folded = pool->FoldedOf(sym);
        raw.emplace_back(folded,
                         Posting{rel_sym, attr_sym, static_cast<uint32_t>(r)});
      }
    }
  }

  // Pass 2: counting sort by key into the flat CSR arrays. Slots are
  // assigned in first-occurrence order; postings keep scan order per key.
  // The symbol->slot table lives only for the sort; it is sized by
  // IdBound() because the sharded pool's symbol space is not dense.
  std::vector<uint32_t> slot_of(pool->IdBound(), kNoSlot);
  for (const auto& [folded, _] : raw) {
    if (slot_of[folded] == kNoSlot) {
      slot_of[folded] = static_cast<uint32_t>(index.key_of_slot_.size());
      index.key_of_slot_.push_back(folded);
    }
  }
  const size_t num_keys = index.key_of_slot_.size();
  index.offsets_.assign(num_keys + 1, 0);
  for (const auto& [folded, _] : raw) {
    ++index.offsets_[slot_of[folded] + 1];
  }
  for (size_t s = 1; s <= num_keys; ++s) {
    index.offsets_[s] += index.offsets_[s - 1];
  }
  index.postings_.resize(raw.size());
  std::vector<uint32_t> cursor(index.offsets_.begin(), index.offsets_.end() - 1);
  for (const auto& [folded, posting] : raw) {
    index.postings_[cursor[slot_of[folded]]++] = posting;
  }

  index.pool_ = std::move(pool);
  index.BuildProbeTable();
  return index;
}

void InvertedColumnIndex::BuildProbeTable() {
  // Flat probe table at <= 50% load (power-of-two capacity).
  size_t capacity = 8;
  while (capacity < key_of_slot_.size() * 2) capacity *= 2;
  probe_table_.assign(capacity, ProbeEntry{});
  probe_mask_ = capacity - 1;
  for (uint32_t slot = 0; slot < key_of_slot_.size(); ++slot) {
    const Symbol folded = key_of_slot_[slot];
    const uint64_t hash = StringPool::FoldHashOf(pool_->View(folded));
    size_t i = hash & probe_mask_;
    while (probe_table_[i].slot != kNoSlot) i = (i + 1) & probe_mask_;
    probe_table_[i] = ProbeEntry{hash, folded, slot};
  }
}

const InvertedColumnIndex::ProbeEntry* InvertedColumnIndex::FindProbeEntry(
    std::string_view text) const {
  if (probe_table_.empty()) return nullptr;
  uint64_t hash = StringPool::FoldHashOf(text);
  size_t i = hash & probe_mask_;
  while (probe_table_[i].slot != kNoSlot) {
    const ProbeEntry& e = probe_table_[i];
    if (e.hash == hash && StringPool::FoldEqual(pool_->View(e.folded), text)) {
      return &e;
    }
    i = (i + 1) & probe_mask_;
  }
  return nullptr;
}

InvertedColumnIndex::PostingSpan InvertedColumnIndex::Lookup(
    std::string_view text) const {
  const ProbeEntry* e = FindProbeEntry(text);
  if (e == nullptr) return PostingSpan();
  return PostingSpan(postings_.data() + offsets_[e->slot],
                     offsets_[e->slot + 1] - offsets_[e->slot]);
}

Symbol InvertedColumnIndex::FoldedSymbolOf(std::string_view text) const {
  const ProbeEntry* e = FindProbeEntry(text);
  return e == nullptr ? kNoSymbol : e->folded;
}

}  // namespace squid
