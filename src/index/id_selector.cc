#include "index/id_selector.h"

#include <algorithm>

namespace usp {

IdSelectorArray::IdSelectorArray(std::vector<uint32_t> ids)
    : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

bool IdSelectorArray::is_member(uint32_t id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

size_t IdSelectorArray::count(size_t universe) const {
  // Entries are sorted, so the members below `universe` are a prefix.
  if (universe > static_cast<size_t>(UINT32_MAX)) return ids_.size();
  const auto it = std::lower_bound(ids_.begin(), ids_.end(),
                                   static_cast<uint32_t>(universe));
  return static_cast<size_t>(it - ids_.begin());
}

IdSelectorBitmap::IdSelectorBitmap(size_t universe)
    : universe_(universe), words_((universe + 63) / 64, 0) {}

IdSelectorBitmap::IdSelectorBitmap(size_t universe,
                                   const std::vector<uint32_t>& ids)
    : IdSelectorBitmap(universe) {
  for (uint32_t id : ids) {
    if (id < universe_) Set(id);
  }
}

void IdSelectorBitmap::Set(uint32_t id) {
  if (id < universe_) words_[id >> 6] |= uint64_t{1} << (id & 63u);
}

void IdSelectorBitmap::Reset(uint32_t id) {
  if (id < universe_) words_[id >> 6] &= ~(uint64_t{1} << (id & 63u));
}

size_t IdSelectorBitmap::count() const {
  size_t total = 0;
  for (uint64_t word : words_) total += __builtin_popcountll(word);
  return total;
}

size_t IdSelectorBitmap::count(size_t universe) const {
  const size_t limit = std::min(universe, universe_);
  const size_t full_words = limit >> 6;
  size_t total = 0;
  for (size_t w = 0; w < full_words; ++w) {
    total += __builtin_popcountll(words_[w]);
  }
  const size_t tail_bits = limit & 63u;
  if (tail_bits != 0) {
    const uint64_t mask = (uint64_t{1} << tail_bits) - 1;
    total += __builtin_popcountll(words_[full_words] & mask);
  }
  return total;
}

size_t CountUpTo(const IdSelector& filter, size_t universe, size_t limit) {
  const size_t exact = filter.count(universe);
  if (exact != kUnknownCount) return std::min(exact, limit);
  size_t found = 0;
  for (size_t id = 0; id < universe && found < limit; ++id) {
    if (filter.is_member(static_cast<uint32_t>(id))) ++found;
  }
  return found;
}

uint32_t EraseNonMembers(const IdSelector* filter, std::vector<uint32_t>* ids) {
  if (filter == nullptr) return 0;
  const size_t before = ids->size();
  ids->erase(
      std::remove_if(ids->begin(), ids->end(),
                     [&](uint32_t id) { return !filter->is_member(id); }),
      ids->end());
  return static_cast<uint32_t>(before - ids->size());
}

}  // namespace usp
