// Read-replica ingestion front: a SketchSource over a frozen image
// (wire/frozen.h) that was mmap'd from disk or borrowed from a peer's
// SNAPSHOT response.
//
// Construction is O(1): the image is structurally vetted, never parsed.
// SketchQueryEngine recognizes this source and reads the image as its
// entry view (wire::FrozenView), so SUM / TOPK / GROUPBY run straight
// off the image — zero decode, answers bit-identical to the thawed
// sketch. The SketchSource surface degrades to read-only: Ingest
// CHECK-fails (a replica never ingests; route writes to a writer node),
// RestoreSnapshot returns false, and SaveSnapshot / SaveFrozen return
// the image itself, so replicas re-serve their snapshot for free.
//
// View() is the compatibility escape hatch for code that needs a live
// sketch: it thaws once (O(n)) and caches. Thaw CHECK-fails on images
// whose *content* is malformed (structural vetting cannot see that);
// servers exposed to untrusted images call Validate() once instead and
// refuse the paths that would thaw.

#ifndef DSKETCH_QUERY_FROZEN_SOURCE_H_
#define DSKETCH_QUERY_FROZEN_SOURCE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/frequent_items.h"
#include "core/serialization.h"
#include "core/sketch_entry.h"
#include "query/sketch_source.h"
#include "util/logging.h"
#include "util/mmap_array.h"
#include "wire/frozen.h"

namespace dsketch {

/// SketchSource over a frozen image (borrowed, adopted, or mmap'd).
class FrozenSketchSource : public SketchSource {
 public:
  /// Over borrowed bytes, which must outlive the source. O(1) vetting
  /// only; nullopt when the bytes are not a structurally valid image.
  static std::optional<FrozenSketchSource> FromBytes(std::string_view bytes,
                                                     uint64_t seed = 1) {
    std::optional<wire::FrozenView> view = wire::FrozenView::Vet(bytes);
    if (!view.has_value()) return std::nullopt;
    FrozenSketchSource out;
    out.view_ = view;
    out.seed_ = seed;
    return out;
  }

  /// Adopts a copy of the blob (e.g. a SNAPSHOT response body).
  static std::optional<FrozenSketchSource> FromBlob(std::string blob,
                                                    uint64_t seed = 1) {
    auto owned = std::make_shared<std::string>(std::move(blob));
    std::optional<FrozenSketchSource> out = FromBytes(*owned, seed);
    if (out.has_value()) out->owned_blob_ = std::move(owned);
    return out;
  }

  /// Maps `path` (util/mmap_array.h MappedFile: real mmap on POSIX,
  /// read-into-heap elsewhere) and vets the image. The mapping is owned
  /// by the source, so the frozen file serves straight off the page
  /// cache for the source's lifetime.
  static std::optional<FrozenSketchSource> FromFile(const std::string& path,
                                                    uint64_t seed = 1) {
    std::optional<MappedFile> file = MapFile(path);
    if (!file.has_value()) return std::nullopt;
    auto owned = std::make_shared<MappedFile>(std::move(*file));
    std::optional<FrozenSketchSource> out = FromBytes(owned->bytes(), seed);
    if (out.has_value()) out->file_ = std::move(owned);
    return out;
  }

  /// The vetted zero-copy view the engine queries against.
  const wire::FrozenView& frozen() const { return *view_; }

  /// True when the image is served from an actual file mapping.
  bool backed_by_mmap() const {
    return file_ != nullptr && file_->backed_by_mmap();
  }

  /// Deep O(n) content validation (everything ThawFrozen checks) without
  /// keeping the thawed sketch. Servers fed untrusted images call this
  /// once at startup so the View() escape hatch can never abort later.
  bool Validate() const {
    return ThawFrozen(view_->bytes(), seed_).has_value();
  }

  /// Replicas are read-only: rows belong on a writer node.
  void Ingest(Span<const uint64_t> items) override {
    (void)items;
    DSKETCH_CHECK(false && "FrozenSketchSource is read-only");
  }

  /// Thaws once (O(n)) and caches — the compatibility path for code
  /// that needs a live sketch (e.g. re-encoding as v2). CHECK-fails on
  /// content-malformed images; see Validate().
  const UnbiasedSpaceSaving& View() override {
    if (thawed_ == nullptr) {
      std::optional<UnbiasedSpaceSaving> thawed =
          ThawFrozen(view_->bytes(), seed_);
      DSKETCH_CHECK(thawed.has_value());
      thawed_ = std::make_shared<UnbiasedSpaceSaving>(std::move(*thawed));
    }
    return *thawed_;
  }

  /// The snapshot of a frozen replica is the image itself (no re-encode).
  std::string SaveSnapshot() override { return std::string(view_->bytes()); }
  std::string SaveFrozen() override { return SaveSnapshot(); }

  /// Read-only: nothing restores into a frozen view.
  bool RestoreSnapshot(std::string_view bytes) override {
    (void)bytes;
    return false;
  }

 private:
  FrozenSketchSource() = default;

  // Always engaged once a factory succeeds (optional because only Vet
  // can produce a FrozenView).
  std::optional<wire::FrozenView> view_;
  uint64_t seed_ = 1;
  // Exactly one of these owns the bytes; both empty for borrowed bytes.
  // shared_ptr keeps the source copyable (the view is just a pointer).
  std::shared_ptr<const std::string> owned_blob_;
  std::shared_ptr<const MappedFile> file_;
  std::shared_ptr<UnbiasedSpaceSaving> thawed_;
};

/// Top-k of a frozen image without decoding: the image stores entries in
/// canonical descending order, so the answer is its first k records —
/// bit-identical to TopK(thawed_sketch, k). k must be > 0.
inline std::vector<SketchEntry> FrozenTopK(const wire::FrozenView& view,
                                           size_t k) {
  return TopEntries(view, k);
}

}  // namespace dsketch

#endif  // DSKETCH_QUERY_FROZEN_SOURCE_H_
