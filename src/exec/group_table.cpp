#include "exec/group_table.h"

#include <algorithm>

#include "exec/join_hash.h"

namespace squid {

GroupKeyTable::GroupKeyTable(size_t parts)
    : parts_(parts), slots_(16, kNoGroup), cap_(16) {}

uint64_t GroupKeyTable::HashKey(const uint64_t* key) const {
  uint64_t h = 1469598103934665603ULL;
  for (size_t p = 0; p < parts_; ++p) {
    h = (h ^ MixJoinKey(key[p])) * 1099511628211ULL;
  }
  return h;
}

void GroupKeyTable::Rehash() {
  cap_ <<= 1;
  slots_.assign(cap_, kNoGroup);
  for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
    uint64_t ri = groups_[gi].hash & (cap_ - 1);
    while (slots_[ri] != kNoGroup) ri = (ri + 1) & (cap_ - 1);
    slots_[ri] = gi;
  }
}

void GroupKeyTable::AddBatch(const uint64_t* packed, size_t n,
                             uint32_t tuple_base) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* key = packed + i * parts_;
    const uint64_t h = HashKey(key);
    uint64_t b = h & (cap_ - 1);
    while (true) {
      const uint32_t g = slots_[b];
      if (g == kNoGroup) {
        slots_[b] = static_cast<uint32_t>(groups_.size());
        groups_.push_back(Group{h, tuple_base + static_cast<uint32_t>(i), 1});
        key_storage_.insert(key_storage_.end(), key, key + parts_);
        if ((groups_.size() + 1) * 2 > cap_) Rehash();
        break;
      }
      if (groups_[g].hash == h &&
          std::equal(key, key + parts_, key_storage_.data() + g * parts_)) {
        ++groups_[g].count;
        break;
      }
      b = (b + 1) & (cap_ - 1);
    }
  }
}

}  // namespace squid
