// SketchServer: the long-lived streaming service over the query engine.
//
// One server owns the full ingest-to-answer pipeline the ROADMAP's
// streaming-service item describes: framed INGEST_BATCH requests drain
// into a ShardedSketch via SketchSource::Ingest (unit rows) or into a
// ShardedWeightedSpaceSaving fleet (weighted rows), queries are answered
// from SketchQueryEngine against the merged snapshot view, and
// replication rides the wire snapshot codecs — SNAPSHOT streams
// SaveSnapshot bytes out, RESTORE feeds IngestSerialized so a replica
// catches up from a peer's snapshot while keeping its own rows.
//
// The request surface is transport-agnostic: HandleRequest maps one
// request payload to one response payload (pure request/response, fully
// unit-testable), and Serve() is the event loop that runs it over a
// framed Transport until EOF, a frame-level protocol violation, or a
// SHUTDOWN request. Hostile input never crashes the server: undecodable
// requests get Status::kMalformed responses, unknown opcodes
// Status::kUnknownOpcode, oversized claims Status::kTooLarge — the same
// never-abort contract the sketch wire decoders pin under asan.
//
// Threading: one thread drives HandleRequest/Serve (the sharded fleets
// below fan work out across their own workers). Run multiple servers for
// multiple connections and let them exchange snapshots.

#ifndef DSKETCH_SERVICE_SERVER_H_
#define DSKETCH_SERVICE_SERVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "query/attribute_table.h"
#include "query/engine.h"
#include "query/frozen_source.h"
#include "query/sketch_source.h"
#include "query/windowed_source.h"
#include "service/protocol.h"
#include "service/transport.h"
#include "shard/sharded_sketch.h"

namespace dsketch {

/// One slow request, as handed to SketchServerOptions::slow_request_hook
/// (all sizes are payload bytes, excluding the 4-byte frame prefix).
struct SlowRequestInfo {
  Opcode opcode = Opcode::kStats;
  uint64_t request_id = 0;
  uint64_t latency_us = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
};

/// Server tuning knobs.
struct SketchServerOptions {
  /// Shard fleet configuration (workers, per-shard bins, queues) shared
  /// by the counts, weighted, and windowed ingest paths.
  ShardedSketchOptions shard;
  /// Bins of the merged snapshot view queries and SNAPSHOT run against.
  size_t merged_capacity = 4096;
  /// Epoch-ring configuration of the windowed scope (its merged_capacity
  /// is overridden by `merged_capacity` above so every scope's query
  /// view is sized the same way; its seed comes from shard.seed).
  WindowedSketchOptions window;
  /// Seed for the snapshot merge and restores (shard seeds come from
  /// shard.seed; the weighted/windowed fleets offset it so the paths
  /// differ).
  uint64_t seed = 1;
  /// > 0: wall-clock epoch scheduling — Serve() advances the windowed
  /// scope's epoch every this-many milliseconds of real time, so a
  /// deployment gets sliding windows without every client stamping rows.
  /// 0 (default) keeps epochs purely caller-driven. Must be >= 0.
  int64_t epoch_interval_ms = 0;
  /// > 0: every request whose HandleRequest latency reaches this many
  /// microseconds fires `slow_request_hook` (default: one structured
  /// line on stderr — see README "Observability") and bumps
  /// dsketch_service_slow_requests_total. 0 (default) disables the
  /// hook. Must be >= 0.
  int64_t slow_request_us = 0;
  /// Replaces the default stderr line when set (tests capture calls;
  /// embedders route into their own logger). Called on the serving
  /// thread — keep it cheap.
  std::function<void(const SlowRequestInfo&)> slow_request_hook;
  /// > 0: capture every Nth request's full span tree into the
  /// recent-traces ring (obs/trace.h; 1 = every request). Combined with
  /// slow_request_us > 0, every slow request is also captured in full
  /// (tail sampling). 0 (default) leaves per-request sampling off — the
  /// flight recorder still runs. Must be >= 0. Applied to the global
  /// TraceCollector at construction when either sampling knob is set;
  /// the destructor restores the previous policy, so a server's
  /// sampling does not outlive it (tests and embedders constructing
  /// several servers in one process see each policy scoped to its
  /// server's lifetime).
  int64_t trace_sample = 0;
};

/// The streaming sketch service.
class SketchServer {
 public:
  /// `attrs` is the dimension table predicates and group-bys evaluate
  /// against; it may be nullptr (queries with attribute conditions then
  /// answer Status::kUnsupported) and must outlive the server otherwise.
  explicit SketchServer(const SketchServerOptions& options,
                        const AttributeTable* attrs = nullptr);

  /// Read-replica server over a frozen image (`dsketchd --replica`):
  /// the image is the counts scope's read target, so queries are
  /// answered straight off it via the engine's zero-decode path,
  /// SNAPSHOT re-serves the image itself, and everything that would
  /// mutate or miss the image (INGEST, RESTORE, weighted/window scopes)
  /// answers Status::kUnsupported. A replica builds no shard fleet and
  /// starts no threads; it has no window scope, so
  /// options.epoch_interval_ms must be 0. `replica` must be non-null and
  /// outlive the server; callers should Validate() untrusted images
  /// first.
  SketchServer(const SketchServerOptions& options, FrozenSketchSource* replica,
               const AttributeTable* attrs);

  /// Restores the process-global trace sampling policy the constructor
  /// replaced (see SketchServerOptions::trace_sample).
  ~SketchServer();

  /// Maps one request payload to one response payload. Always returns a
  /// well-formed response (possibly an error response); never aborts on
  /// hostile bytes.
  std::string HandleRequest(std::string_view request);

  /// Serves framed requests until EOF, a frame violation, or SHUTDOWN;
  /// closes the write side on exit.
  void Serve(Transport& transport);

  /// True once a SHUTDOWN request has been handled.
  bool shutdown_requested() const { return shutdown_; }

  /// Current counters (same numbers a STATS request reports).
  StatsResponse Stats();

 private:
  // The opcode switch HandleRequest wraps with telemetry (per-opcode
  // request count, latency histogram, slow-request hook).
  std::string Dispatch(const RequestHeader& header,
                       wire::VarintReader& reader);
  std::string HandleIngestBatch(const RequestHeader& header,
                                wire::VarintReader& reader);
  std::string HandleQuerySum(const RequestHeader& header,
                             wire::VarintReader& reader);
  std::string HandleQueryTopK(const RequestHeader& header,
                              wire::VarintReader& reader);
  std::string HandleQueryGroupBy(const RequestHeader& header,
                                 wire::VarintReader& reader);
  std::string HandleSnapshot(const RequestHeader& header,
                             wire::VarintReader& reader);
  std::string HandleRestore(const RequestHeader& header,
                            wire::VarintReader& reader);
  std::string HandleMetrics(const RequestHeader& header,
                            wire::VarintReader& reader);
  std::string HandleTrace(const RequestHeader& header,
                          wire::VarintReader& reader);

  // The single error-response chokepoint: bumps the per-status error
  // counter (STATS) and the labeled obs series, then encodes the
  // header-only error response.
  std::string Fail(Opcode opcode, uint64_t request_id, Status status);

  // Lazily boots the weighted fleet (first weighted ingest/restore).
  ShardedWeightedSpaceSaving& Weighted();

  // Merged weighted view, recomputed when the fleet ingested since the
  // last call (mirrors ShardedSketchSource's snapshot cache).
  const WeightedSpaceSaving& WeightedView();

  // Lazily boots the windowed source (first windowed
  // ingest/query/restore); the source caches its own merged views.
  WindowedSketchSource& Window();

  // Vets `options` and applies its process-wide settings (both
  // constructors).
  void Configure(const SketchServerOptions& options);

  // True on a replica for every scope but counts: the image holds only
  // the counts sketch.
  bool ReplicaRefuses(QueryScope scope) const {
    return writer_ == nullptr && scope != QueryScope::kCounts;
  }

  // Builds a Predicate from `spec`, validating dimensions. Returns
  // kOk, kMalformed (bad dim), or kUnsupported (no attribute table).
  Status BuildPredicate(const PredicateSpec& spec, Predicate* out) const;

  // Advances the windowed scope's epoch by `ticks` elapsed timer
  // intervals (boots the windowed fleet on the first tick). Saturates
  // at kMaxEpochStamp — a long-lived timer or a hostile near-cap stamp
  // stops the clock instead of crashing the serve loop.
  void TickEpochs(uint64_t ticks);

  // Stand-in table for attribute-less deployments (the engine requires a
  // non-null table; attribute-touching queries are gated on attrs_).
  static const AttributeTable kEmptyAttrs;

  SketchServerOptions options_;
  const AttributeTable* attrs_;
  // The counts scope's read target: the unit-row shard fleet on a
  // writer; on a replica (writer_ null) the borrowed frozen image. One
  // engine answers every read over it, and over the other scopes' views.
  std::unique_ptr<ShardedSketchSource> writer_;
  SketchSource* counts_;
  SketchQueryEngine engine_;
  std::unique_ptr<ShardedWeightedSpaceSaving> weighted_;
  WeightedSpaceSaving weighted_view_;
  std::unique_ptr<WindowedSketchSource> window_source_;
  bool weighted_dirty_ = false;
  bool shutdown_ = false;
  // Set when the constructor applied this server's sampling knobs to
  // the process-global TraceCollector; the destructor then restores the
  // policy saved here.
  bool configured_tracing_ = false;
  obs::TraceConfig saved_trace_config_;

  struct Counters {
    uint64_t rows_ingested = 0;
    uint64_t weighted_rows_ingested = 0;
    uint64_t windowed_rows_ingested = 0;
    uint64_t batches = 0;
    uint64_t queries = 0;
    uint64_t snapshots = 0;
    uint64_t restores = 0;
    std::array<uint64_t, kStatusCount> errors{};  // indexed by Status
    SnapshotFormat last_snapshot_format = SnapshotFormat::kNone;
    uint64_t last_snapshot_bytes = 0;
    SnapshotFormat last_restore_format = SnapshotFormat::kNone;
    uint64_t last_restore_bytes = 0;
  };
  Counters counters_;
};

}  // namespace dsketch

#endif  // DSKETCH_SERVICE_SERVER_H_
