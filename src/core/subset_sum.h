// Disaggregated subset sum estimation over an Unbiased Space Saving sketch
// (paper §6.4-6.5): point estimate, the variance estimator
//
//   V̂ar(N̂_S) = N̂min² · C_S        (paper eq. 5)
//
// where C_S = max(1, #items of S tracked by the sketch), and normal
// confidence intervals built from it. The variance estimate is valid (and
// deliberately upward biased) even for worst-case non-i.i.d. streams.
//
// Every estimate reads an *entry view*: the labeled bins in descending
// count order (ties by ascending item) and the min bin N̂min. A view is
// any type with
//
//   size_t size() const;             // labeled bins
//   uint64_t item(size_t i) const;   // label of the i-th largest bin
//   C count(size_t i) const;         // its count (int64_t or double)
//   C min_count() const;             // N̂min
//
// UnbiasedSpaceSaving::EntryView(), WeightedSpaceSaving::EntryView() and
// wire::FrozenView (read straight off a frozen image) are the three. The
// estimators below are templates over the view and the predicate, so
// every scope and the frozen image run one inlined loop, and answers over
// the same entries in the same order are bit-identical by construction.

#ifndef DSKETCH_CORE_SUBSET_SUM_H_
#define DSKETCH_CORE_SUBSET_SUM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"

namespace dsketch {

/// A two-sided interval.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  /// True if `x` lies inside the interval (inclusive).
  bool Contains(double x) const { return x >= lo && x <= hi; }

  /// Interval width.
  double Width() const { return hi - lo; }
};

/// Result of a subset sum query against a sketch.
struct SubsetSumEstimate {
  double estimate = 0.0;       ///< unbiased estimate of the subset sum
  double variance = 0.0;       ///< V̂ar from paper eq. 5 (upward biased)
  uint64_t items_in_sample = 0;  ///< C_S before the max(1, .) floor

  /// Estimated standard deviation.
  double StdDev() const;

  /// Normal confidence interval at `level` (e.g. 0.95).
  Interval Confidence(double level) const;
};

/// Paper eq. 5: N̂min² · max(1, C_S) for a subset with `items_in_sample`
/// tracked items.
inline double SubsetSumVariance(double min_count, uint64_t items_in_sample) {
  const double c_s =
      static_cast<double>(std::max<uint64_t>(1, items_in_sample));
  return min_count * min_count * c_s;
}

/// Estimates the sum over the entries of `view` whose item satisfies
/// `pred` (the estimator; everything else delegates here).
template <typename View, typename Pred>
auto EstimateSubsetSum(const View& view, Pred&& pred)
    -> decltype(view.min_count(), SubsetSumEstimate()) {
  SubsetSumEstimate out;
  const size_t n = view.size();
  for (size_t i = 0; i < n; ++i) {
    if (pred(view.item(i))) {
      out.estimate += static_cast<double>(view.count(i));
      ++out.items_in_sample;
    }
  }
  out.variance = SubsetSumVariance(static_cast<double>(view.min_count()),
                                   out.items_in_sample);
  return out;
}

/// One subset sum per group: entries satisfying `pred` are summed under
/// key_of(item), each group with its own eq. 5 variance.
template <typename View, typename Pred, typename KeyFn>
std::unordered_map<uint64_t, SubsetSumEstimate> EstimateGroupBy(
    const View& view, Pred&& pred, KeyFn&& key_of) {
  std::unordered_map<uint64_t, SubsetSumEstimate> out;
  const size_t n = view.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t item = view.item(i);
    if (!pred(item)) continue;
    SubsetSumEstimate& group = out[key_of(item)];
    group.estimate += static_cast<double>(view.count(i));
    ++group.items_in_sample;
  }
  const double nmin = static_cast<double>(view.min_count());
  for (auto& [key, group] : out) {
    group.variance = SubsetSumVariance(nmin, group.items_in_sample);
  }
  return out;
}

/// Estimates the sum over all items satisfying `pred`.
SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::function<bool(uint64_t)>& pred);

/// Estimates the sum over an explicit item set.
SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::unordered_set<uint64_t>& items);

/// Estimates the total weight of all items satisfying `pred`; the
/// variance uses MinWeight() as N̂min.
template <typename Pred>
SubsetSumEstimate EstimateSubsetSum(const WeightedSpaceSaving& sketch,
                                    Pred&& pred) {
  return EstimateSubsetSum(sketch.EntryView(), pred);
}

}  // namespace dsketch

#endif  // DSKETCH_CORE_SUBSET_SUM_H_
