// Common (item, count) entry types shared by the sketch family.

#ifndef DSKETCH_CORE_SKETCH_ENTRY_H_
#define DSKETCH_CORE_SKETCH_ENTRY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dsketch {

// The comparators are spelled out (not `= default`) so the headers stay
// C++17-compatible; defaulted equality is a C++20 feature.

/// One bin of an integer-count sketch.
struct SketchEntry {
  uint64_t item = 0;  ///< item label (unit-of-analysis identifier)
  int64_t count = 0;  ///< estimated count for the label

  friend bool operator==(const SketchEntry& a, const SketchEntry& b) {
    return a.item == b.item && a.count == b.count;
  }
  friend bool operator!=(const SketchEntry& a, const SketchEntry& b) {
    return !(a == b);
  }
};

/// One bin of a real-valued (weighted) sketch.
struct WeightedEntry {
  uint64_t item = 0;   ///< item label
  double weight = 0.0; ///< estimated total weight for the label

  friend bool operator==(const WeightedEntry& a, const WeightedEntry& b) {
    return a.item == b.item && a.weight == b.weight;
  }
  friend bool operator!=(const WeightedEntry& a, const WeightedEntry& b) {
    return !(a == b);
  }
};

/// An entry's count, whatever its type calls it.
inline int64_t CountOf(const SketchEntry& e) { return e.count; }
inline double CountOf(const WeightedEntry& e) { return e.weight; }

/// Entry view (core/subset_sum.h) over a materialized entry list: the
/// labeled bins in descending count order, plus the sketch's min bin.
/// `Entry` is SketchEntry or WeightedEntry; the count type follows it.
template <typename Entry>
class EntryList {
 public:
  using Count = decltype(CountOf(Entry{}));

  EntryList(std::vector<Entry> entries, Count min_count)
      : entries_(std::move(entries)), min_count_(min_count) {}

  size_t size() const { return entries_.size(); }
  uint64_t item(size_t i) const { return entries_[i].item; }
  Count count(size_t i) const { return CountOf(entries_[i]); }
  Count min_count() const { return min_count_; }

 private:
  std::vector<Entry> entries_;
  Count min_count_;
};

}  // namespace dsketch

#endif  // DSKETCH_CORE_SKETCH_ENTRY_H_
