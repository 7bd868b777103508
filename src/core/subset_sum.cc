#include "core/subset_sum.h"

#include <cmath>

#include "stats/normal.h"

namespace dsketch {

double SubsetSumEstimate::StdDev() const { return std::sqrt(variance); }

Interval SubsetSumEstimate::Confidence(double level) const {
  double z = NormalTwoSidedZ(level);
  double half = z * StdDev();
  return Interval{estimate - half, estimate + half};
}

SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::function<bool(uint64_t)>& pred) {
  return EstimateSubsetSum(sketch.EntryView(), pred);
}

SubsetSumEstimate EstimateSubsetSum(
    const UnbiasedSpaceSaving& sketch,
    const std::unordered_set<uint64_t>& items) {
  return EstimateSubsetSum(sketch.EntryView(), [&items](uint64_t item) {
    return items.find(item) != items.end();
  });
}

}  // namespace dsketch
