// Predicate-filtered search: an IdSelector names the subset of base ids a
// query is allowed to return (the FAISS SearchParameters/IDSelector idea).
// SearchOptions::filter carries one through every scoring path, where it is
// applied *before* scoring — filtered search is "brute force over the allowed
// subset" at full budget, never a post-filtered truncation of an unfiltered
// result. See docs/ARCHITECTURE.md ("Query path") for how each index type
// pushes the selector down.
//
// Selectors are immutable at query time and shared by concurrent queries, so
// is_member must be const-thread-safe (all implementations here are plain
// reads). They are non-owning from the index's point of view: the caller
// keeps the selector alive for the duration of the search.
#ifndef USP_INDEX_ID_SELECTOR_H_
#define USP_INDEX_ID_SELECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace usp {

/// Sentinel returned by IdSelector::count when a selector cannot report its
/// cardinality without enumerating the universe.
inline constexpr size_t kUnknownCount = static_cast<size_t>(-1);

/// Membership predicate over base-point ids. `id` is whatever id space the
/// queried index reports: base row numbers for the static index types, stable
/// global ids for DynamicIndex (which translates the selector to per-segment
/// local ids internally).
class IdSelector {
 public:
  virtual ~IdSelector() = default;

  /// True when `id` may appear in search results.
  virtual bool is_member(uint32_t id) const = 0;

  /// Exact number of members inside [0, universe) when that is cheaply
  /// computable (O(1) arithmetic for All/Range, O(log) for Array, one
  /// popcount pass for Bitmap, complement arithmetic for Not), or
  /// kUnknownCount when counting would require enumerating the universe.
  /// This is the query planner's selectivity probe; see CountUpTo for the
  /// bounded fallback that handles kUnknownCount selectors.
  virtual size_t count(size_t universe) const {
    (void)universe;
    return kUnknownCount;
  }
};

/// Accepts every id: search behaves exactly as with no filter. Useful as a
/// neutral default in code that always composes selectors.
class IdSelectorAll final : public IdSelector {
 public:
  bool is_member(uint32_t) const override { return true; }

  size_t count(size_t universe) const override { return universe; }
};

/// Accepts the half-open range [begin, end) — the natural selector for
/// time-ordered corpora where ids are assigned by ingestion order.
class IdSelectorRange final : public IdSelector {
 public:
  IdSelectorRange(uint32_t begin, uint32_t end) : begin_(begin), end_(end) {}

  bool is_member(uint32_t id) const override {
    return id >= begin_ && id < end_;
  }

  /// |[begin, end) ∩ [0, universe)|.
  size_t count(size_t universe) const override {
    const size_t lo = std::min<size_t>(begin_, universe);
    const size_t hi = std::min<size_t>(end_, universe);
    return hi > lo ? hi - lo : 0;
  }

  uint32_t begin() const { return begin_; }
  uint32_t end() const { return end_; }

 private:
  uint32_t begin_;
  uint32_t end_;
};

/// Accepts an explicit id list (sorted + deduplicated at construction;
/// membership is a binary search). Suited to short allow-lists; prefer
/// IdSelectorBitmap when the list is a sizable fraction of the base.
class IdSelectorArray final : public IdSelector {
 public:
  explicit IdSelectorArray(std::vector<uint32_t> ids);

  bool is_member(uint32_t id) const override;

  /// Entries below `universe` — a binary search over the sorted list, so ids
  /// at or beyond the queried index's size never inflate the selectivity.
  size_t count(size_t universe) const override;

  /// The sorted, deduplicated allow-list.
  const std::vector<uint32_t>& ids() const { return ids_; }

 private:
  std::vector<uint32_t> ids_;
};

/// Dense bitmap over the id universe [0, universe): O(1) membership, one bit
/// per base point. Ids at or beyond `universe` are non-members. This is the
/// selector DynamicIndex builds internally when translating a global filter
/// to segment-local ids.
class IdSelectorBitmap final : public IdSelector {
 public:
  /// All ids non-members; populate with Set().
  explicit IdSelectorBitmap(size_t universe);

  /// Members are exactly the in-range entries of `ids`.
  IdSelectorBitmap(size_t universe, const std::vector<uint32_t>& ids);

  bool is_member(uint32_t id) const override {
    return id < universe_ &&
           (words_[id >> 6] >> (id & 63u) & uint64_t{1}) != 0;
  }

  void Set(uint32_t id);
  void Reset(uint32_t id);

  size_t universe() const { return universe_; }

  /// Number of member ids (popcount over the bitmap).
  size_t count() const;

  /// Members below min(universe, this->universe()): the popcount restricted
  /// to the queried index's id range.
  size_t count(size_t universe) const override;

 private:
  size_t universe_;
  std::vector<uint64_t> words_;
};

/// Complement of another selector: is_member(id) == !inner.is_member(id).
/// Composable — Not(Array) expresses a deny-list, Not(Range) excludes a
/// cohort. Non-owning: `inner` must outlive this selector.
class IdSelectorNot final : public IdSelector {
 public:
  explicit IdSelectorNot(const IdSelector* inner) : inner_(inner) {}

  bool is_member(uint32_t id) const override {
    return !inner_->is_member(id);
  }

  /// Universe-aware complement: universe - inner.count(universe), propagating
  /// kUnknownCount when the inner selector cannot count itself.
  size_t count(size_t universe) const override {
    const size_t inner_count = inner_->count(universe);
    return inner_count == kUnknownCount ? kUnknownCount
                                        : universe - inner_count;
  }

 private:
  const IdSelector* inner_;
};

/// Bounded selectivity probe: min(limit, |members of `filter` in
/// [0, universe)|). O(1)-ish when the selector implements count();
/// otherwise scans ids upward and stops as soon as `limit` members are found
/// (or the universe is exhausted) — so a planner asking "are there at least
/// L allowed ids?" pays at most one membership test per id up to the answer.
size_t CountUpTo(const IdSelector& filter, size_t universe, size_t limit);

/// Selector pushdown on a candidate list: erases the ids `filter` rejects,
/// keeping the order of the rest, and returns how many were erased. A null
/// filter keeps every id.
uint32_t EraseNonMembers(const IdSelector* filter, std::vector<uint32_t>* ids);

}  // namespace usp

#endif  // USP_INDEX_ID_SELECTOR_H_
