#include "service/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/frequent_items.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/frame.h"
#include "util/flat_map.h"
#include "util/logging.h"
#include "util/mmap_array.h"
#include "util/span.h"
#include "wire/codec.h"
#include "wire/frozen.h"

namespace dsketch {

namespace {

// Seed offsets separating the weighted and windowed fleets' randomness
// from the unit fleet's (all derive from options.shard.seed).
constexpr uint64_t kWeightedSeedOffset = 7777;
constexpr uint64_t kWindowSeedOffset = 8888;

// Classifies a restore blob for the STATS counters by its wire envelope
// (kind 8 = the frozen image; everything else is a stream encoding).
SnapshotFormat BlobSnapshotFormat(std::string_view blob) {
  wire::VarintReader reader(blob);
  std::optional<wire::Envelope> env = wire::ReadEnvelope(reader);
  return env.has_value() && env->kind == wire::kKindFrozenUnbiased
             ? SnapshotFormat::kFrozen
             : SnapshotFormat::kStream;
}

// Per-opcode telemetry handles, indexed by opcode value (0 = requests
// whose header never decoded or whose opcode is unknown). Registered
// once; the serve path only touches relaxed atomics.
constexpr size_t kOpcodeSlots = static_cast<size_t>(Opcode::kTrace) + 1;

constexpr const char* kOpcodeNames[kOpcodeSlots] = {
    "unknown",  "ingest_batch", "query_sum", "query_topk", "query_groupby",
    "snapshot", "restore",      "stats",     "shutdown",   "metrics",
    "trace"};

size_t OpcodeIndex(Opcode opcode) {
  const uint8_t v = static_cast<uint8_t>(opcode);
  return v < kOpcodeSlots ? v : 0;
}

obs::Counter& RequestCounter(size_t op_index) {
  static std::array<obs::Counter*, kOpcodeSlots>* counters = [] {
    auto* out = new std::array<obs::Counter*, kOpcodeSlots>;
    for (size_t i = 0; i < kOpcodeSlots; ++i) {
      (*out)[i] = &obs::MetricsRegistry::Global().GetCounter(
          std::string("dsketch_service_requests_total{opcode=\"") +
          kOpcodeNames[i] + "\"}");
    }
    return out;
  }();
  return *(*counters)[op_index];
}

obs::Histogram& LatencyHistogram(size_t op_index) {
  static std::array<obs::Histogram*, kOpcodeSlots>* hists = [] {
    auto* out = new std::array<obs::Histogram*, kOpcodeSlots>;
    for (size_t i = 0; i < kOpcodeSlots; ++i) {
      (*out)[i] = &obs::MetricsRegistry::Global().GetHistogram(
          std::string("dsketch_service_request_latency_us{opcode=\"") +
          kOpcodeNames[i] + "\"}");
    }
    return out;
  }();
  return *(*hists)[op_index];
}

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kMalformed:
      return "malformed";
    case Status::kUnknownOpcode:
      return "unknown_opcode";
    case Status::kUnsupported:
      return "unsupported";
    case Status::kTooLarge:
      return "too_large";
    case Status::kBadState:
      return "bad_state";
  }
  return "unknown";
}

obs::Counter& ErrorCounter(Status status) {
  static std::array<obs::Counter*, kStatusCount>* counters = [] {
    auto* out = new std::array<obs::Counter*, kStatusCount>;
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = &obs::MetricsRegistry::Global().GetCounter(
          std::string("dsketch_service_request_errors_total{status=\"") +
          StatusName(static_cast<Status>(i)) + "\"}");
    }
    return out;
  }();
  const size_t i = static_cast<size_t>(status);
  return *(*counters)[i < counters->size() ? i : 0];
}

obs::Counter& SlowRequestCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_service_slow_requests_total");
  return counter;
}

obs::Counter& FrameBytesCounter(bool in) {
  static obs::Counter& bytes_in = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_service_frame_bytes_total{dir=\"in\"}");
  static obs::Counter& bytes_out = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_service_frame_bytes_total{dir=\"out\"}");
  return in ? bytes_in : bytes_out;
}

obs::Counter& TimerTickCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_timer_ticks_total");
  return counter;
}

obs::Counter& TimerCatchupCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "dsketch_window_timer_catchup_ticks_total");
  return counter;
}

// Info gauge: constant 1, the interesting bits ride the labels (which
// allocator mode, probe kernel, and metrics build this process runs).
void RegisterBuildInfo() {
  static bool once = [] {
    obs::MetricsRegistry::Global()
        .GetGauge(std::string("dsketch_util_build_info{alloc_mode=\"") +
                  AllocModeName(GlobalAllocMode()) + "\",probe_isa=\"" +
                  FlatMapProbeIsa() + "\",metrics=\"" +
                  obs::MetricsBuildMode() + "\"}")
        .Set(1);
    return true;
  }();
  (void)once;
}

}  // namespace

SketchServer::SketchServer(const SketchServerOptions& options,
                           const AttributeTable* attrs)
    : options_(options),
      attrs_(attrs),
      writer_(std::make_unique<ShardedSketchSource>(
          options.shard, options.merged_capacity, options.seed)),
      counts_(writer_.get()),
      engine_(writer_.get(), attrs != nullptr ? attrs : &kEmptyAttrs),
      weighted_view_(options.merged_capacity, options.seed) {
  Configure(options);
}

SketchServer::SketchServer(const SketchServerOptions& options,
                           FrozenSketchSource* replica,
                           const AttributeTable* attrs)
    : options_(options),
      attrs_(attrs),
      counts_(replica),
      engine_(replica, attrs != nullptr ? attrs : &kEmptyAttrs),
      weighted_view_(options.merged_capacity, options.seed) {
  // A replica has no window scope for a wall-clock timer to advance.
  DSKETCH_CHECK(options.epoch_interval_ms == 0);
  Configure(options);
}

void SketchServer::Configure(const SketchServerOptions& options) {
  // The windowed fleet is built lazily on the first windowed frame, so
  // its configuration is vetted here: a bad SketchServerOptions.window
  // must fail at startup, not take down a serving process mid-stream.
  // Stamped rows are the windowed clock, so row-count time is rejected
  // (MakeShardedWindowed's contract); the rest mirrors the
  // WindowedSketch constructor checks.
  DSKETCH_CHECK(options.window.rows_per_epoch == 0);
  DSKETCH_CHECK(options.window.window_epochs > 0 &&
                options.window.window_epochs <= kMaxWindowEpochs);
  DSKETCH_CHECK(ValidHalfLife(options.window.half_life_epochs));
  // SNAPSHOT must be able to serialize every scope's view, so the
  // capacities are bounded by the wire encoders' cap up front too —
  // SerializeWindowed/Serialize would otherwise CHECK on the first
  // SNAPSHOT frame.
  DSKETCH_CHECK(options.window.epoch_capacity > 0 &&
                options.window.epoch_capacity <= kMaxSerializableCapacity);
  DSKETCH_CHECK(options.merged_capacity > 0 &&
                options.merged_capacity <= kMaxSerializableCapacity);
  // Wall-clock epoch scheduling is vetted at startup like the rest of
  // the window configuration (0 = disabled).
  DSKETCH_CHECK(options.epoch_interval_ms >= 0);
  DSKETCH_CHECK(options.slow_request_us >= 0);
  DSKETCH_CHECK(options.trace_sample >= 0);
  // Sampling rides the process-wide collector (one serving pipeline per
  // process is the deployment model); a server with both knobs at zero
  // leaves an already-configured collector alone. The previous policy
  // is saved and restored by the destructor so it stays scoped to this
  // server's lifetime. The collector is created here, on the
  // constructing thread, even when it is left alone: created by the
  // first request instead, its permanent allocation would sit in the
  // serve thread's malloc arena and keep the memory a fleet or merged
  // view frees there from going back to the OS.
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  if (options.trace_sample > 0 || options.slow_request_us > 0) {
    saved_trace_config_ = collector.config();
    configured_tracing_ = true;
    obs::TraceConfig trace_config;
    trace_config.sample_every =
        options.trace_sample > int64_t{0xFFFFFFFF}
            ? uint32_t{0xFFFFFFFF}
            : static_cast<uint32_t>(options.trace_sample);
    trace_config.slow_request_us = options.slow_request_us;
    collector.Configure(trace_config);
  }
  RegisterBuildInfo();
}

SketchServer::~SketchServer() {
  if (configured_tracing_) {
    obs::TraceCollector::Global().Configure(saved_trace_config_);
  }
}

// Engine construction requires a non-null table; queries that actually
// touch attributes are gated on attrs_ before reaching it.
const AttributeTable SketchServer::kEmptyAttrs(1);

ShardedWeightedSpaceSaving& SketchServer::Weighted() {
  if (weighted_ == nullptr) {
    ShardedSketchOptions opt = options_.shard;
    opt.seed += kWeightedSeedOffset;
    weighted_ = std::make_unique<ShardedWeightedSpaceSaving>(opt);
  }
  return *weighted_;
}

const WeightedSpaceSaving& SketchServer::WeightedView() {
  if (weighted_ != nullptr && weighted_dirty_) {
    weighted_view_ = weighted_->Snapshot(options_.merged_capacity,
                                         options_.seed + kWeightedSeedOffset);
    weighted_dirty_ = false;
  }
  return weighted_view_;
}

WindowedSketchSource& SketchServer::Window() {
  if (window_source_ == nullptr) {
    ShardedSketchOptions shard = options_.shard;
    shard.seed += kWindowSeedOffset;
    WindowedSketchOptions window = options_.window;
    window.merged_capacity = options_.merged_capacity;
    window_source_ =
        std::make_unique<WindowedSketchSource>(shard, window);
  }
  return *window_source_;
}

Status SketchServer::BuildPredicate(const PredicateSpec& spec,
                                    Predicate* out) const {
  if (spec.conditions.empty()) return Status::kOk;
  if (attrs_ == nullptr) return Status::kUnsupported;
  for (const PredicateSpec::Condition& c : spec.conditions) {
    if (c.dim >= attrs_->num_dims() || c.values.empty()) {
      return Status::kMalformed;
    }
    out->WhereIn(static_cast<size_t>(c.dim), c.values);
  }
  return Status::kOk;
}

std::string SketchServer::Fail(Opcode opcode, uint64_t request_id,
                               Status status) {
  ++counters_.errors[static_cast<size_t>(status)];
  ErrorCounter(status).Inc();
  return EncodeErrorResponse(opcode, request_id, status);
}

std::string SketchServer::HandleRequest(std::string_view request) {
  // Root span of the request's trace. Declared first so every child
  // span below (decode, shard, window, query, encode) closes before it;
  // the serve loop's response-write span joins afterwards via the
  // pending-trace hand-off (obs/trace.h).
  obs::ScopedTrace trace("request");
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  wire::VarintReader reader(request);
  RequestHeader header;
  std::string response;
  size_t op_index = 0;
  uint64_t request_id = 0;
  Opcode opcode = static_cast<Opcode>(0);
  if (!DecodeRequestHeader(reader, &header)) {
    response = Fail(static_cast<Opcode>(0), 0, Status::kMalformed);
  } else {
    op_index = OpcodeIndex(header.opcode);
    request_id = header.request_id;
    opcode = header.opcode;
    trace.SetTraceId(obs::TraceIdFromRequestId(header.request_id));
    trace.Annotate("opcode", static_cast<uint64_t>(header.opcode));
    trace.Annotate("request_bytes", request.size());
    response = header.version != kProtocolVersion
                   ? Fail(header.opcode, header.request_id,
                          Status::kUnsupported)
                   : Dispatch(header, reader);
  }
  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  RequestCounter(op_index).Inc();
  LatencyHistogram(op_index).Record(latency_us);
  if (options_.slow_request_us > 0 &&
      latency_us >= static_cast<uint64_t>(options_.slow_request_us)) {
    SlowRequestCounter().Inc();
    SlowRequestInfo info;
    info.opcode = opcode;
    info.request_id = request_id;
    info.latency_us = latency_us;
    info.request_bytes = request.size();
    info.response_bytes = response.size();
    if (options_.slow_request_hook) {
      options_.slow_request_hook(info);
    } else {
      std::fprintf(stderr,
                   "dsketchd: slow_request opcode=%s request_id=%" PRIu64
                   " latency_us=%" PRIu64 " request_bytes=%zu"
                   " response_bytes=%zu\n",
                   kOpcodeNames[op_index], info.request_id, info.latency_us,
                   info.request_bytes, info.response_bytes);
    }
  }
  return response;
}

std::string SketchServer::Dispatch(const RequestHeader& header,
                                   wire::VarintReader& reader) {
  switch (header.opcode) {
    case Opcode::kIngestBatch:
      return HandleIngestBatch(header, reader);
    case Opcode::kQuerySum:
      return HandleQuerySum(header, reader);
    case Opcode::kQueryTopK:
      return HandleQueryTopK(header, reader);
    case Opcode::kQueryGroupBy:
      return HandleQueryGroupBy(header, reader);
    case Opcode::kSnapshot:
      return HandleSnapshot(header, reader);
    case Opcode::kRestore:
      return HandleRestore(header, reader);
    case Opcode::kMetrics:
      return HandleMetrics(header, reader);
    case Opcode::kTrace:
      return HandleTrace(header, reader);
    case Opcode::kStats: {
      if (!reader.AtEnd()) {
        return Fail(header.opcode, header.request_id, Status::kMalformed);
      }
      return EncodeStatsResponse(header.request_id, Stats());
    }
    case Opcode::kShutdown: {
      if (!reader.AtEnd()) {
        return Fail(header.opcode, header.request_id, Status::kMalformed);
      }
      shutdown_ = true;
      return EncodeShutdownResponse(header.request_id);
    }
  }
  return Fail(header.opcode, header.request_id, Status::kUnknownOpcode);
}

std::string SketchServer::HandleMetrics(const RequestHeader& header,
                                        wire::VarintReader& reader) {
  MetricsRequest req;
  if (!DecodeMetricsRequest(reader, &req)) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  // Served in replica mode too: a read-only node's telemetry is exactly
  // what an operator watching a replica fleet needs.
  MetricsResponse rsp;
  rsp.text = obs::DumpMetricsText(MetricsScopePrefix(req.scope));
  if (rsp.text.size() > kMaxMetricsTextBytes) {
    return Fail(header.opcode, header.request_id, Status::kTooLarge);
  }
  return EncodeMetricsResponse(header.request_id, rsp);
}

std::string SketchServer::HandleTrace(const RequestHeader& header,
                                      wire::VarintReader& reader) {
  TraceRequest req;
  if (!DecodeTraceRequest(reader, &req)) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  // Served in replica mode too: why a read-only node's requests were
  // slow is exactly what its traces answer.
  TraceResponse rsp;
  rsp.text =
      req.scope == TraceScope::kRecent
          ? obs::TraceToChromeJson(obs::TraceCollector::Global().Recent())
          : obs::SpansToText(obs::FlightRecorder::Global().Dump());
  if (rsp.text.size() > kMaxTraceTextBytes) {
    return Fail(header.opcode, header.request_id, Status::kTooLarge);
  }
  return EncodeTraceResponse(header.request_id, rsp);
}

std::string SketchServer::HandleIngestBatch(const RequestHeader& header,
                                            wire::VarintReader& reader) {
  IngestBatchRequest req;
  bool decoded;
  {
    obs::ScopedSpan span("frame_decode", obs::TraceLayer::kWire);
    decoded = DecodeIngestBatchRequest(reader, &req);
    span.Annotate("rows", req.items.size());
  }
  if (!decoded) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  if (writer_ == nullptr) {
    // Replicas are read-only; rows belong on a writer node.
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  if (req.windowed) {
    std::vector<EpochRow> rows;
    rows.reserve(req.items.size());
    for (uint64_t item : req.items) rows.push_back({item, req.epoch});
    WindowedSketchSource& window = Window();
    window.Advance(req.epoch);  // an empty batch still advances the ring
    window.IngestEpoch(Span<const EpochRow>(rows.data(), rows.size()));
    counters_.windowed_rows_ingested += rows.size();
  } else if (req.weights.empty()) {
    writer_->Ingest(Span<const uint64_t>(req.items.data(), req.items.size()));
    counters_.rows_ingested += req.items.size();
  } else {
    std::vector<WeightedEntry> rows;
    rows.reserve(req.items.size());
    for (size_t i = 0; i < req.items.size(); ++i) {
      rows.push_back({req.items[i], req.weights[i]});
    }
    Weighted().Ingest(Span<const WeightedEntry>(rows.data(), rows.size()));
    weighted_dirty_ = true;
    counters_.weighted_rows_ingested += rows.size();
  }
  ++counters_.batches;
  IngestBatchResponse rsp;
  rsp.rows_accepted = req.items.size();
  obs::ScopedSpan span("wire_encode", obs::TraceLayer::kWire);
  return EncodeIngestBatchResponse(header.request_id, rsp);
}

std::string SketchServer::HandleQuerySum(const RequestHeader& header,
                                         wire::VarintReader& reader) {
  QuerySumRequest req;
  bool decoded;
  {
    obs::ScopedSpan span("frame_decode", obs::TraceLayer::kWire);
    decoded = DecodeQuerySumRequest(reader, &req);
  }
  if (!decoded) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  Predicate pred;
  Status status = BuildPredicate(req.where, &pred);
  if (status != Status::kOk) {
    return Fail(header.opcode, header.request_id, status);
  }
  if (ReplicaRefuses(req.scope)) {
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  ++counters_.queries;
  QuerySumResponse rsp;
  {
    obs::ScopedSpan span("query_reduce", obs::TraceLayer::kQuery);
    span.Annotate("scope", static_cast<uint64_t>(req.scope));
    SubsetSumEstimate est;
    if (req.scope == QueryScope::kCounts) {
      est = engine_.Sum(pred);
    } else if (req.scope == QueryScope::kWindow) {
      est = engine_.Sum(
          Window().WindowView(static_cast<size_t>(req.last_k)).EntryView(),
          pred);
    } else {
      est = engine_.Sum(WeightedView().EntryView(), pred);
    }
    rsp.estimate = est.estimate;
    rsp.variance = est.variance;
    rsp.items_in_sample = est.items_in_sample;
  }
  obs::ScopedSpan span("wire_encode", obs::TraceLayer::kWire);
  return EncodeQuerySumResponse(header.request_id, rsp);
}

std::string SketchServer::HandleQueryTopK(const RequestHeader& header,
                                          wire::VarintReader& reader) {
  QueryTopKRequest req;
  bool decoded;
  {
    obs::ScopedSpan span("frame_decode", obs::TraceLayer::kWire);
    decoded = DecodeQueryTopKRequest(reader, &req);
  }
  if (!decoded) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  if (ReplicaRefuses(req.scope)) {
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  ++counters_.queries;
  QueryTopKResponse rsp;
  rsp.scope = req.scope;
  {
    obs::ScopedSpan span("query_reduce", obs::TraceLayer::kQuery);
    span.Annotate("scope", static_cast<uint64_t>(req.scope));
    span.Annotate("k", req.k);
    if (req.scope == QueryScope::kCounts) {
      rsp.counts = engine_.TopK(static_cast<size_t>(req.k));
    } else if (req.scope == QueryScope::kWindow) {
      // WindowView's merge flushes the fleet whenever the view is dirty.
      rsp.counts = TopK(Window().WindowView(static_cast<size_t>(req.last_k)),
                        static_cast<size_t>(req.k));
    } else {
      std::vector<WeightedEntry> entries = WeightedView().Entries();
      if (entries.size() > req.k) entries.resize(static_cast<size_t>(req.k));
      rsp.weighted = std::move(entries);
    }
  }
  obs::ScopedSpan span("wire_encode", obs::TraceLayer::kWire);
  return EncodeQueryTopKResponse(header.request_id, rsp);
}

std::string SketchServer::HandleQueryGroupBy(const RequestHeader& header,
                                             wire::VarintReader& reader) {
  QueryGroupByRequest req;
  if (!DecodeQueryGroupByRequest(reader, &req)) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  if (attrs_ == nullptr) {
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  if (req.dim1 >= attrs_->num_dims() ||
      (req.has_dim2 && req.dim2 >= attrs_->num_dims())) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  Predicate pred;
  Status status = BuildPredicate(req.where, &pred);
  if (status != Status::kOk) {
    return Fail(header.opcode, header.request_id, status);
  }
  ++counters_.queries;
  QueryGroupByResponse rsp;
  {
    obs::ScopedSpan span("query_reduce", obs::TraceLayer::kQuery);
    auto add_group = [&rsp](uint64_t key, const SubsetSumEstimate& est) {
      rsp.groups.push_back(
          {key, est.estimate, est.variance, est.items_in_sample});
    };
    if (req.has_dim2) {
      for (const auto& [key, est] :
           engine_.GroupBy2(static_cast<size_t>(req.dim1),
                           static_cast<size_t>(req.dim2), pred)) {
        add_group(key, est);
      }
    } else {
      for (const auto& [key, est] :
           engine_.GroupBy1(static_cast<size_t>(req.dim1), pred)) {
        add_group(key, est);
      }
    }
    // Deterministic response order (the engine's maps are unordered).
    std::sort(
        rsp.groups.begin(), rsp.groups.end(),
        [](const GroupRow& a, const GroupRow& b) { return a.key < b.key; });
    span.Annotate("groups", rsp.groups.size());
  }
  obs::ScopedSpan span("wire_encode", obs::TraceLayer::kWire);
  return EncodeQueryGroupByResponse(header.request_id, rsp);
}

std::string SketchServer::HandleSnapshot(const RequestHeader& header,
                                         wire::VarintReader& reader) {
  SnapshotRequest req;
  if (!DecodeSnapshotRequest(reader, &req)) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  // The frozen image carries only the counts sketch; other scopes have
  // no frozen form.
  if (req.frozen && req.scope != QueryScope::kCounts) {
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  if (ReplicaRefuses(req.scope)) {
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  ++counters_.snapshots;
  SnapshotResponse rsp;
  if (req.scope == QueryScope::kCounts) {
    // A replica re-serves its image byte for byte either way.
    rsp.blob = req.frozen ? counts_->SaveFrozen() : counts_->SaveSnapshot();
  } else if (req.scope == QueryScope::kWindow) {
    rsp.blob = Window().SaveSnapshot();  // the full epoch ring
  } else {
    rsp.blob = SketchWire<WeightedSpaceSaving>::Serialize(WeightedView());
  }
  // A frame must hold the response; the serialization caps keep real
  // snapshots far below this.
  if (rsp.blob.size() > kMaxSnapshotBlobBytes) {
    return Fail(header.opcode, header.request_id, Status::kTooLarge);
  }
  counters_.last_snapshot_format = BlobSnapshotFormat(rsp.blob);
  counters_.last_snapshot_bytes = rsp.blob.size();
  obs::ScopedSpan span("wire_encode", obs::TraceLayer::kWire);
  span.Annotate("blob_bytes", rsp.blob.size());
  return EncodeSnapshotResponse(header.request_id, rsp);
}

std::string SketchServer::HandleRestore(const RequestHeader& header,
                                        wire::VarintReader& reader) {
  RestoreRequest req;
  if (!DecodeRestoreRequest(reader, &req)) {
    return Fail(header.opcode, header.request_id, Status::kMalformed);
  }
  if (writer_ == nullptr) {
    // Replicas are read-only; nothing restores into a frozen image.
    return Fail(header.opcode, header.request_id, Status::kUnsupported);
  }
  RestoreResponse rsp;
  if (req.scope == QueryScope::kCounts) {
    if (!writer_->RestoreSnapshot(req.blob)) {
      return Fail(header.opcode, header.request_id, Status::kBadState);
    }
    rsp.num_absorbed = writer_->sharded().num_absorbed();
  } else if (req.scope == QueryScope::kWindow) {
    if (!Window().RestoreSnapshot(req.blob)) {
      return Fail(header.opcode, header.request_id, Status::kBadState);
    }
    rsp.num_absorbed = Window().sharded().num_absorbed();
  } else {
    if (!Weighted().IngestSerialized(req.blob)) {
      return Fail(header.opcode, header.request_id, Status::kBadState);
    }
    weighted_dirty_ = true;
    rsp.num_absorbed = Weighted().num_absorbed();
  }
  ++counters_.restores;
  counters_.last_restore_format = BlobSnapshotFormat(req.blob);
  counters_.last_restore_bytes = req.blob.size();
  return EncodeRestoreResponse(header.request_id, rsp);
}

StatsResponse SketchServer::Stats() {
  StatsResponse out;
  out.rows_ingested = counters_.rows_ingested;
  out.weighted_rows_ingested = counters_.weighted_rows_ingested;
  out.windowed_rows_ingested = counters_.windowed_rows_ingested;
  out.window_epoch =
      window_source_ != nullptr ? window_source_->current_epoch() : 0;
  out.batches = counters_.batches;
  out.queries = counters_.queries;
  out.snapshots = counters_.snapshots;
  out.restores = counters_.restores;
  for (uint64_t n : counters_.errors) out.errors += n;
  auto errors = [this](Status status) {
    return counters_.errors[static_cast<size_t>(status)];
  };
  out.errors_malformed = errors(Status::kMalformed);
  out.errors_unknown_opcode = errors(Status::kUnknownOpcode);
  out.errors_unsupported = errors(Status::kUnsupported);
  out.errors_too_large = errors(Status::kTooLarge);
  out.errors_bad_state = errors(Status::kBadState);
  // A replica has no fleet; its total comes off the image header.
  out.num_shards = writer_ != nullptr ? writer_->sharded().num_shards() : 0;
  out.total_count = engine_.TotalCount();
  out.total_weight =
      weighted_ != nullptr ? WeightedView().TotalWeight() : 0.0;
  out.last_snapshot_format = counters_.last_snapshot_format;
  out.last_snapshot_bytes = counters_.last_snapshot_bytes;
  out.last_restore_format = counters_.last_restore_format;
  out.last_restore_bytes = counters_.last_restore_bytes;
  out.traces_captured_total = obs::TraceCollector::Global().traces_captured();
  out.flight_recorder_dropped_total = obs::FlightRecorder::Global().dropped();
  return out;
}

void SketchServer::TickEpochs(uint64_t ticks) {
  // Owed-tick catch-up is visible per cause: ticks counts every epoch
  // the wall clock owed, catchup the ones beyond the first — a stalled
  // serve loop (slow request, suspended process) shows up as catchup.
  TimerTickCounter().Inc(ticks);
  if (ticks > 1) TimerCatchupCounter().Inc(ticks - 1);
  WindowedSketchSource& window = Window();
  const uint64_t current = window.current_epoch();
  const uint64_t target = ticks > kMaxEpochStamp - current
                              ? kMaxEpochStamp
                              : current + ticks;
  window.Advance(target);
}

void SketchServer::Serve(Transport& transport) {
  using Clock = std::chrono::steady_clock;
  const int64_t interval = options_.epoch_interval_ms;
  Clock::time_point next_tick =
      Clock::now() + std::chrono::milliseconds(interval);
  std::string payload;
  while (true) {
    if (interval > 0) {
      // Wall-clock epoch scheduling: wait for readability in slices so
      // every elapsed interval advances the windowed epoch — including
      // idle stretches with no frames at all. A stalled serve loop
      // (slow request, suspended process) catches up in one Advance for
      // all owed ticks, never one epoch at a time.
      while (!transport.WaitReadable(static_cast<int>(std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::milliseconds>(
                 next_tick - Clock::now())
                 .count())))) {
        const Clock::time_point now = Clock::now();
        if (now < next_tick) continue;  // spurious poll-timeout slop
        const uint64_t ticks =
            1 + static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - next_tick)
                        .count()) /
                    static_cast<uint64_t>(interval);
        TickEpochs(ticks);
        next_tick += std::chrono::milliseconds(
            interval * static_cast<int64_t>(ticks));
      }
    }
    FrameStatus fs = ReadFrame(transport, &payload);
    // EOF ends the session cleanly; a frame violation (hostile length
    // prefix, mid-frame EOF) is unrecoverable on a byte stream, so the
    // connection is dropped either way.
    if (fs != FrameStatus::kOk) break;
    FrameBytesCounter(/*in=*/true).Inc(payload.size() + kFrameHeaderBytes);
    std::string response = HandleRequest(payload);
    bool wrote;
    {
      // Joins the request's trace via the pending-trace hand-off even
      // though the root span already closed inside HandleRequest.
      obs::ScopedSpan span("response_write", obs::TraceLayer::kWire);
      span.Annotate("bytes", response.size());
      wrote = WriteFrame(transport, response);
    }
    obs::FlushPendingTrace();
    if (!wrote) break;
    FrameBytesCounter(/*in=*/false).Inc(response.size() + kFrameHeaderBytes);
    if (shutdown_) break;
  }
  transport.CloseWrite();
}

}  // namespace dsketch
