// Frequent item (heavy hitter) queries over the Space Saving family
// (paper §3.2, §6.1).
//
// For the deterministic sketch, `guaranteed` reports items whose lower
// bound (estimate - Nmin) already clears the support threshold — the
// classic deterministic guarantee. For the unbiased sketch there is no
// deterministic bound, but Theorem 3 gives eventual inclusion of every
// item with frequency > 1/m on i.i.d. streams, and the estimate itself is
// unbiased; candidates are reported with their estimates.

#ifndef DSKETCH_CORE_FREQUENT_ITEMS_H_
#define DSKETCH_CORE_FREQUENT_ITEMS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/deterministic_space_saving.h"
#include "core/unbiased_space_saving.h"
#include "util/logging.h"

namespace dsketch {

/// One reported heavy hitter.
struct FrequentItem {
  uint64_t item = 0;        ///< item label
  int64_t estimate = 0;     ///< estimated count
  int64_t lower_bound = 0;  ///< estimate - Nmin (deterministic floor)
  bool guaranteed = false;  ///< lower_bound itself clears the threshold
};

/// Items with estimated count > `phi` * TotalCount(), descending by
/// estimate. 0 <= phi < 1.
std::vector<FrequentItem> FrequentItems(const DeterministicSpaceSaving& sketch,
                                        double phi);

/// Unbiased-sketch variant; `guaranteed` uses the same conservative
/// (estimate - Nmin) floor, which remains a valid lower bound only in
/// expectation — it is reported for symmetry but not as a hard guarantee.
std::vector<FrequentItem> FrequentItems(const UnbiasedSpaceSaving& sketch,
                                        double phi);

/// Top-k entries by estimated count (k > 0), descending.
std::vector<SketchEntry> TopK(const DeterministicSpaceSaving& sketch,
                              size_t k);

/// Top-k entries by estimated count (k > 0), descending.
std::vector<SketchEntry> TopK(const UnbiasedSpaceSaving& sketch, size_t k);

/// Top-k of an integer-count entry view (core/subset_sum.h): its first
/// min(k, size) entries, which are the k largest bins (k > 0).
template <typename View>
std::vector<SketchEntry> TopEntries(const View& view, size_t k) {
  DSKETCH_CHECK(k > 0);
  const size_t n = std::min(k, view.size());
  std::vector<SketchEntry> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back({view.item(i), view.count(i)});
  return out;
}

}  // namespace dsketch

#endif  // DSKETCH_CORE_FREQUENT_ITEMS_H_
