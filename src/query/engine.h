// Query engines answering the paper's motivating SQL shape
//
//   SELECT sum(metric) FROM table WHERE filters GROUP BY dimensions
//
// over (a) an Unbiased Space Saving sketch — approximate, with variance
// and confidence intervals — and (b) an ExactAggregator — ground truth.
// Group-by keys are the attribute value (1-way) or a packed pair of
// attribute values (2-way), matching the marginal queries of Fig. 6.

#ifndef DSKETCH_QUERY_ENGINE_H_
#define DSKETCH_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/sketch_entry.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/exact_aggregator.h"
#include "query/frozen_source.h"
#include "query/predicate.h"
#include "query/sketch_source.h"
#include "wire/frozen.h"

namespace dsketch {

/// Packs two 32-bit group keys into one 64-bit key (d1 high, d2 low).
inline uint64_t PackGroupKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Approximate engine over a sketch plus dimension table. Every query
/// runs one body (core/subset_sum.h) over the read target's entry view:
/// the sketch's EntryView(), or the frozen image itself — so frozen
/// answers are bit-identical to thawed ones by construction.
class SketchQueryEngine {
 public:
  /// Both pointers must outlive the engine.
  SketchQueryEngine(const UnbiasedSpaceSaving* sketch,
                    const AttributeTable* attrs);

  /// Engine over any ingestion source (plain, sharded, or windowed);
  /// queries run against source->View(), so they always see all flushed
  /// rows. Both pointers must outlive the engine.
  SketchQueryEngine(SketchSource* source, const AttributeTable* attrs);

  /// Engine over a frozen image (read replica): queries read the image
  /// in place — zero decode. Both pointers must outlive the engine.
  SketchQueryEngine(FrozenSketchSource* source, const AttributeTable* attrs);

  /// SELECT sum(1) WHERE `where`.
  SubsetSumEstimate Sum(const Predicate& where) const;

  /// SELECT sum(1) WHERE `where` over an explicit entry view (e.g. a
  /// window's last-k merge or the weighted sketch).
  template <typename View>
  SubsetSumEstimate Sum(const View& view, const Predicate& where) const {
    return EstimateSubsetSum(
        view, [&](uint64_t item) { return where.Matches(*attrs_, item); });
  }

  /// SELECT sum(1) GROUP BY dim WHERE `where`; key = attribute value.
  std::unordered_map<uint32_t, SubsetSumEstimate> GroupBy1(
      size_t dim, const Predicate& where = Predicate()) const;

  /// Two-dimensional group-by; key = PackGroupKey(attr[d1], attr[d2]).
  std::unordered_map<uint64_t, SubsetSumEstimate> GroupBy2(
      size_t d1, size_t d2, const Predicate& where = Predicate()) const;

  /// The k largest entries, descending (k > 0).
  std::vector<SketchEntry> TopK(size_t k) const;

  /// Rows the read target has seen (its TotalCount()).
  int64_t TotalCount() const;

 private:
  // The sketch queries run against: `sketch_` when constructed from a
  // plain sketch, otherwise `source_->View()` resolved per query.
  const UnbiasedSpaceSaving& QuerySketch() const;

  // Calls fn(view) on the read target's entry view: the frozen image, or
  // the query sketch's EntryView().
  template <typename Fn>
  auto Read(Fn&& fn) const;

  // Shared group-by body: items the table does not describe belong to no
  // group.
  template <typename KeyFn>
  std::unordered_map<uint64_t, SubsetSumEstimate> GroupBy(
      const Predicate& where, KeyFn&& key_of) const;

  const UnbiasedSpaceSaving* sketch_ = nullptr;
  SketchSource* source_ = nullptr;
  // Set for the frozen constructor: queries read the image directly.
  const wire::FrozenView* frozen_ = nullptr;
  const AttributeTable* attrs_;
};

/// Exact engine with the same query surface (returns true sums).
class ExactQueryEngine {
 public:
  /// Both pointers must outlive the engine.
  ExactQueryEngine(const ExactAggregator* agg, const AttributeTable* attrs);

  /// Exact SELECT sum(1) WHERE `where`.
  int64_t Sum(const Predicate& where) const;

  /// Exact 1-way group-by.
  std::unordered_map<uint32_t, int64_t> GroupBy1(
      size_t dim, const Predicate& where = Predicate()) const;

  /// Exact 2-way group-by (keys packed as in PackGroupKey).
  std::unordered_map<uint64_t, int64_t> GroupBy2(
      size_t d1, size_t d2, const Predicate& where = Predicate()) const;

 private:
  const ExactAggregator* agg_;
  const AttributeTable* attrs_;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_ENGINE_H_
