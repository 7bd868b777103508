#include "query/engine.h"

#include "core/frequent_items.h"
#include "util/logging.h"

namespace dsketch {

SketchQueryEngine::SketchQueryEngine(const UnbiasedSpaceSaving* sketch,
                                     const AttributeTable* attrs)
    : sketch_(sketch), attrs_(attrs) {
  DSKETCH_CHECK(sketch != nullptr && attrs != nullptr);
}

SketchQueryEngine::SketchQueryEngine(SketchSource* source,
                                     const AttributeTable* attrs)
    : source_(source), attrs_(attrs) {
  DSKETCH_CHECK(source != nullptr && attrs != nullptr);
}

SketchQueryEngine::SketchQueryEngine(FrozenSketchSource* source,
                                     const AttributeTable* attrs)
    : frozen_(source != nullptr ? &source->frozen() : nullptr),
      attrs_(attrs) {
  DSKETCH_CHECK(source != nullptr && attrs != nullptr);
}

const UnbiasedSpaceSaving& SketchQueryEngine::QuerySketch() const {
  return source_ != nullptr ? source_->View() : *sketch_;
}

template <typename Fn>
auto SketchQueryEngine::Read(Fn&& fn) const {
  if (frozen_ != nullptr) return fn(*frozen_);
  return fn(QuerySketch().EntryView());
}

SubsetSumEstimate SketchQueryEngine::Sum(const Predicate& where) const {
  return Read([&](const auto& view) { return Sum(view, where); });
}

template <typename KeyFn>
std::unordered_map<uint64_t, SubsetSumEstimate> SketchQueryEngine::GroupBy(
    const Predicate& where, KeyFn&& key_of) const {
  return Read([&](const auto& view) {
    return EstimateGroupBy(
        view,
        [&](uint64_t item) {
          return item < attrs_->num_items() && where.Matches(*attrs_, item);
        },
        key_of);
  });
}

std::unordered_map<uint32_t, SubsetSumEstimate> SketchQueryEngine::GroupBy1(
    size_t dim, const Predicate& where) const {
  const std::unordered_map<uint64_t, SubsetSumEstimate> wide =
      GroupBy(where, [&](uint64_t item) {
        return static_cast<uint64_t>(attrs_->Get(item, dim));
      });
  // GroupBy1's public key type is the attribute value itself.
  std::unordered_map<uint32_t, SubsetSumEstimate> out;
  out.reserve(wide.size());
  for (const auto& [key, est] : wide) {
    out.emplace(static_cast<uint32_t>(key), est);
  }
  return out;
}

std::unordered_map<uint64_t, SubsetSumEstimate> SketchQueryEngine::GroupBy2(
    size_t d1, size_t d2, const Predicate& where) const {
  return GroupBy(where, [&](uint64_t item) {
    return PackGroupKey(attrs_->Get(item, d1), attrs_->Get(item, d2));
  });
}

std::vector<SketchEntry> SketchQueryEngine::TopK(size_t k) const {
  return Read([&](const auto& view) { return TopEntries(view, k); });
}

int64_t SketchQueryEngine::TotalCount() const {
  // Not through Read: a thawed EntryView() would copy every entry just
  // to report a header field.
  return frozen_ != nullptr ? frozen_->total_count()
                            : QuerySketch().TotalCount();
}

ExactQueryEngine::ExactQueryEngine(const ExactAggregator* agg,
                                   const AttributeTable* attrs)
    : agg_(agg), attrs_(attrs) {
  DSKETCH_CHECK(agg != nullptr && attrs != nullptr);
}

int64_t ExactQueryEngine::Sum(const Predicate& where) const {
  int64_t sum = 0;
  for (const auto& [item, count] : agg_->counts()) {
    if (where.Matches(*attrs_, item)) sum += count;
  }
  return sum;
}

std::unordered_map<uint32_t, int64_t> ExactQueryEngine::GroupBy1(
    size_t dim, const Predicate& where) const {
  std::unordered_map<uint32_t, int64_t> out;
  for (const auto& [item, count] : agg_->counts()) {
    if (item >= attrs_->num_items()) continue;
    if (!where.Matches(*attrs_, item)) continue;
    out[attrs_->Get(item, dim)] += count;
  }
  return out;
}

std::unordered_map<uint64_t, int64_t> ExactQueryEngine::GroupBy2(
    size_t d1, size_t d2, const Predicate& where) const {
  std::unordered_map<uint64_t, int64_t> out;
  for (const auto& [item, count] : agg_->counts()) {
    if (item >= attrs_->num_items()) continue;
    if (!where.Matches(*attrs_, item)) continue;
    out[PackGroupKey(attrs_->Get(item, d1), attrs_->Get(item, d2))] += count;
  }
  return out;
}

}  // namespace dsketch
