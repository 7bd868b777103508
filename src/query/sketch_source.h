// One ingestion interface in front of the approximate query engine.
//
// Callers feed disaggregated rows through SketchSource::Ingest and query
// through SketchQueryEngine; whether the rows land in a single in-process
// Unbiased Space Saving sketch or fan out across the sharded concurrent
// front-end (shard/sharded_sketch.h) is a deployment choice the query
// layer no longer cares about. Both implementations expose the stream as
// an UnbiasedSpaceSaving view, so every estimator downstream of the
// engine (subset sums, variances, CIs, top-k) behaves identically.
//
// Sources also save/restore state as wire-format bytes (SaveSnapshot /
// RestoreSnapshot), so engine state survives process restarts and
// replicates between deployments — including across wire versions.

#ifndef DSKETCH_QUERY_SKETCH_SOURCE_H_
#define DSKETCH_QUERY_SKETCH_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "core/merge.h"
#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "shard/sharded_sketch.h"
#include "util/span.h"

namespace dsketch {

/// Uniform batched-ingestion front for the query engine.
class SketchSource {
 public:
  virtual ~SketchSource() = default;

  /// Feeds a batch of disaggregated rows (unit-of-analysis labels).
  virtual void Ingest(Span<const uint64_t> items) = 0;

  /// Blocks until all ingested rows are reflected in View().
  virtual void Flush() {}

  /// Sketch over everything ingested so far. The reference stays valid
  /// until the next Ingest/Flush call on this source.
  virtual const UnbiasedSpaceSaving& View() = 0;

  /// Serializes the source's state (wire format, current version):
  /// flushes, then encodes View(). The bytes restore through
  /// RestoreSnapshot on the same kind of source (sources with richer
  /// state — e.g. the windowed epoch ring — override this to ship it).
  virtual std::string SaveSnapshot() {
    Flush();
    return Serialize(View());
  }

  /// View() as a frozen image (wire/frozen.h), the format read replicas
  /// serve; a frozen source returns its own image.
  virtual std::string SaveFrozen() {
    Flush();
    return SerializeFrozen(View());
  }

  /// Absorbs a serialized snapshot (any supported wire version) into
  /// this source's state, merging with whatever was already ingested; on
  /// a fresh source this restores the saved estimates exactly. Returns
  /// false — leaving the state untouched — on malformed bytes.
  virtual bool RestoreSnapshot(std::string_view bytes) = 0;
};

/// Single-threaded source: rows go straight into one sketch via the
/// batched update path.
class PlainSketchSource : public SketchSource {
 public:
  /// Sketch with `capacity` bins; `seed` makes runs reproducible.
  explicit PlainSketchSource(size_t capacity, uint64_t seed = 1)
      : sketch_(capacity, seed), seed_(seed) {}

  void Ingest(Span<const uint64_t> items) override {
    sketch_.UpdateBatch(items);
  }

  const UnbiasedSpaceSaving& View() override { return sketch_; }

  /// Fresh source: adopts the decoded sketch verbatim (exact restore,
  /// capacity taken from the bytes). Non-empty source: unbiased-merges
  /// the decoded entries in at the current capacity.
  bool RestoreSnapshot(std::string_view bytes) override {
    std::optional<UnbiasedSpaceSaving> restored =
        DeserializeUnbiased(bytes, seed_ + 1);
    if (!restored.has_value()) return false;
    if (sketch_.TotalCount() == 0) {
      sketch_ = std::move(*restored);
    } else {
      sketch_ = Merge(sketch_, *restored, sketch_.capacity(), seed_ + 2);
    }
    return true;
  }

 private:
  UnbiasedSpaceSaving sketch_;
  uint64_t seed_;
};

/// Concurrent source: rows fan out across a ShardedSketch; View() merges
/// the shards with the unbiased reduction (cached until the next Ingest).
class ShardedSketchSource : public SketchSource {
 public:
  /// `options` configures the shard fleet; View() merges into a sketch
  /// with `merged_capacity` bins using `merge_seed` (deterministic given
  /// the ingested stream).
  ShardedSketchSource(const ShardedSketchOptions& options,
                      size_t merged_capacity, uint64_t merge_seed = 1)
      : sharded_(options),
        merged_capacity_(merged_capacity),
        merge_seed_(merge_seed),
        snapshot_(merged_capacity, merge_seed) {}

  void Ingest(Span<const uint64_t> items) override {
    sharded_.Ingest(items);
    dirty_ = true;
  }

  void Flush() override { sharded_.Flush(); }

  const UnbiasedSpaceSaving& View() override {
    if (dirty_) {
      snapshot_ = sharded_.Snapshot(merged_capacity_, merge_seed_);
      dirty_ = false;
    }
    return snapshot_;
  }

  /// Routes the snapshot into the shard fleet as an absorbed remote
  /// sketch (ShardedSketch::IngestSerialized); the next View() merges it
  /// with the locally ingested rows.
  bool RestoreSnapshot(std::string_view bytes) override {
    if (!sharded_.IngestSerialized(bytes)) return false;
    dirty_ = true;
    return true;
  }

  /// The underlying shard fleet (e.g. to inspect per-shard sketches).
  ShardedSpaceSaving& sharded() { return sharded_; }

 private:
  ShardedSpaceSaving sharded_;
  size_t merged_capacity_;
  uint64_t merge_seed_;
  UnbiasedSpaceSaving snapshot_;
  bool dirty_ = false;
};

}  // namespace dsketch

#endif  // DSKETCH_QUERY_SKETCH_SOURCE_H_
