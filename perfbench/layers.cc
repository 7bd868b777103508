// Per-layer probes of a traced run: direct calls into each module's
// public functions on the plan's own inputs, timed from here (the
// library gains no instrumentation for them). Every figure is a median
// over many calls.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/frequent_items.h"
#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "query/engine.h"
#include "query/frozen_source.h"
#include "query/sketch_source.h"
#include "query/windowed_source.h"
#include "service/protocol.h"
#include "service/server.h"
#include "shard/sharded_sketch.h"
#include "window/window_wire.h"
#include "window/windowed_sketch.h"

namespace perfbench {

using dsketch::Span;

namespace {

template <typename F>
double TimeUs(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return MicrosBetween(t0, Clock::now());
}

template <typename F>
double MedianUs(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(TimeUs(f));
  return Median(t);
}

// The wire request of one plan op.
std::string EncodeOp(const Plan& plan, const Op& op, uint64_t id) {
  static const dsketch::PredicateSpec kNone;
  const dsketch::PredicateSpec& where =
      op.pred < 0 ? kNone : plan.predicates[op.pred];
  switch (op.kind) {
    case OpKind::kIngest:
    case OpKind::kIngestWindowed: {
      dsketch::IngestBatchRequest req;
      req.items.assign(plan.rows.begin() + op.begin,
                       plan.rows.begin() + op.end);
      req.windowed = op.kind == OpKind::kIngestWindowed;
      req.epoch = op.epoch;
      return dsketch::EncodeIngestBatchRequest(id, req);
    }
    case OpKind::kSum: {
      dsketch::QuerySumRequest req;
      req.scope = op.scope;
      req.last_k = op.last_k;
      req.where = where;
      return dsketch::EncodeQuerySumRequest(id, req);
    }
    case OpKind::kTopK: {
      dsketch::QueryTopKRequest req;
      req.scope = op.scope;
      req.k = kTopK;
      req.last_k = op.last_k;
      return dsketch::EncodeQueryTopKRequest(id, req);
    }
    case OpKind::kGroupBy: {
      dsketch::QueryGroupByRequest req;
      req.dim1 = kGroupDim;
      req.where = where;
      return dsketch::EncodeQueryGroupByRequest(id, req);
    }
  }
  return {};
}

// Decodes one response of `op`; false unless it is a well-formed kOk.
bool DecodeOp(const Op& op, std::string_view payload) {
  dsketch::wire::VarintReader reader(payload);
  dsketch::ResponseHeader header;
  if (!dsketch::DecodeResponseHeader(reader, &header) ||
      header.status != dsketch::Status::kOk) {
    return false;
  }
  switch (op.kind) {
    case OpKind::kIngest:
    case OpKind::kIngestWindowed: {
      dsketch::IngestBatchResponse rsp;
      return dsketch::DecodeIngestBatchResponse(reader, &rsp);
    }
    case OpKind::kSum: {
      dsketch::QuerySumResponse rsp;
      return dsketch::DecodeQuerySumResponse(reader, &rsp);
    }
    case OpKind::kTopK: {
      dsketch::QueryTopKResponse rsp;
      return dsketch::DecodeQueryTopKResponse(reader, &rsp);
    }
    case OpKind::kGroupBy: {
      dsketch::QueryGroupByResponse rsp;
      return dsketch::DecodeQueryGroupByResponse(reader, &rsp);
    }
  }
  return false;
}

// Encode / HandleRequest / decode times of a replayed op sequence.
struct ServiceTimes {
  std::vector<double> encode_ingest, encode_query;
  std::vector<double> handle_ingest, handle_query;
  std::vector<double> decode_query;
  double request_bytes = 0.0;
  double rows = 0.0;
  bool ok = true;

  void Replay(const Plan& plan, const std::vector<Op>& ops,
              dsketch::SketchServer& server, uint64_t* id) {
    for (const Op& op : ops) {
      std::string payload;
      std::string response;
      const double enc = TimeUs([&] { payload = EncodeOp(plan, op, ++*id); });
      const double handle =
          TimeUs([&] { response = server.HandleRequest(payload); });
      bool decoded = false;
      const double dec = TimeUs([&] { decoded = DecodeOp(op, response); });
      ok = ok && decoded;
      if (IsIngest(op)) {
        encode_ingest.push_back(enc);
        handle_ingest.push_back(handle);
        request_bytes += static_cast<double>(payload.size());
        rows += static_cast<double>(op.end - op.begin);
      } else {
        encode_query.push_back(enc);
        handle_query.push_back(handle);
        decode_query.push_back(dec);
      }
    }
  }
};

// The workload's request sequence through SketchServer::HandleRequest
// directly (no transport). Returns the frozen image for the replica.
std::string ProbeService(const Plan& plan, RunOutcome* out) {
  const Spec& spec = plan.spec;
  const bool replica = spec.name == "replica";
  ServiceTimes t;
  uint64_t id = 0;
  std::string image;
  auto writer = std::make_unique<dsketch::SketchServer>(
      ServerOptions(spec, false), plan.attrs.get());
  if (replica) {
    // The writer load is this workload's ingest stretch.
    t.Replay(plan, plan.setup_ops, *writer, &id);
    dsketch::SnapshotRequest req;
    req.frozen = true;
    const std::string rsp =
        writer->HandleRequest(dsketch::EncodeSnapshotRequest(++id, req));
    writer.reset();  // frozen: the writer fleet goes away
    dsketch::wire::VarintReader r(rsp);
    dsketch::ResponseHeader header;
    dsketch::SnapshotResponse snap;
    if (dsketch::DecodeResponseHeader(r, &header) &&
        dsketch::DecodeSnapshotResponse(r, &snap)) {
      image = std::move(snap.blob);
    }
    std::optional<dsketch::FrozenSketchSource> src =
        dsketch::FrozenSketchSource::FromBytes(image);
    if (!src.has_value()) {
      t.ok = false;
    } else {
      dsketch::SketchServer server(ReplicaServerOptions(spec, false), &*src,
                                   plan.attrs.get());
      t.Replay(plan, plan.timed_ops, server, &id);
    }
  } else {
    for (const Op& op : plan.setup_ops) {
      writer->HandleRequest(EncodeOp(plan, op, ++id));
    }
    t.Replay(plan, plan.timed_ops, *writer, &id);
    // The ingest workload's queries are its accuracy set.
    if (spec.name == "ingest") t.Replay(plan, plan.accuracy_ops, *writer, &id);
  }
  if (!t.ok) {
    out->correct = false;
    out->errors.push_back("replayed request answered with an error");
  }
  Results& l = out->per_layer;
  l.Set("service.encode_us", Median(t.encode_ingest), "us");
  l.Set("service.handle_ingest_us", Median(t.handle_ingest), "us");
  l.Set("service.handle_query_us", Median(t.handle_query), "us");
  l.Set("service.decode_us", Median(t.decode_query), "us");
  l.Set("service.request_bytes_per_row",
        t.rows > 0.0 ? t.request_bytes / t.rows : 0.0, "bytes");
  // Round trip minus the parts this process can attribute, request by
  // request: what the frames spend in the transport and waiting for the
  // serve thread.
  std::vector<double> residual;
  if (out->query_rtt_us.size() == t.handle_query.size()) {
    for (size_t i = 0; i < t.handle_query.size(); ++i) {
      residual.push_back(out->query_rtt_us[i] - t.encode_query[i] -
                         t.handle_query[i] - t.decode_query[i]);
    }
  }
  l.Set("service.transport_us", Median(residual), "us");
  return image;
}

// Shard fleet, core sketch and query engine on the workload's rows.
void ProbeShardCoreQuery(const Plan& plan, const std::string& image,
                         RunOutcome* out) {
  const Spec& spec = plan.spec;
  Results& l = out->per_layer;
  const dsketch::SketchServerOptions opts = ServerOptions(spec, false);
  dsketch::ShardedSketchSource src(opts.shard, spec.merged_bins, opts.seed);
  std::vector<double> ingest_us, flush_us, view_us;
  const size_t batches = plan.rows.size() / spec.batch_rows;
  for (size_t b = 0; b < batches; ++b) {
    const Span<const uint64_t> rows(plan.rows.data() + b * spec.batch_rows,
                                    spec.batch_rows);
    ingest_us.push_back(TimeUs([&] { src.Ingest(rows); }));
    flush_us.push_back(TimeUs([&] { src.Flush(); }));
    // A view after fresh rows: flush + per-shard copies + merge.
    if (b % 8 == 7) view_us.push_back(TimeUs([&] { src.View(); }));
  }
  l.Set("shard.ingest_us_per_krow",
        Median(ingest_us) * 1000.0 / static_cast<double>(spec.batch_rows),
        "us");
  l.Set("shard.flush_wait_us", Median(flush_us), "us");
  l.Set("shard.snapshot_merge_us", Median(view_us), "us");

  // core: the per-shard sketches merged directly, and one shard's rows
  // through UpdateBatch on this thread (the single-threaded baseline of
  // a worker's job, in the worker's 1024-row drains).
  src.Flush();
  std::vector<dsketch::UnbiasedSpaceSaving> shards;
  for (size_t s = 0; s < src.sharded().num_shards(); ++s) {
    shards.push_back(src.sharded().shard(s));
  }
  l.Set("core.merge_us", MedianUs(5, [&] {
          dsketch::MergeShards(shards, spec.merged_bins, opts.seed);
        }),
        "us");
  std::vector<uint64_t> shard0;
  for (uint64_t item : plan.rows) {
    if (src.sharded().ShardOf(item) == 0) shard0.push_back(item);
  }
  std::vector<double> ns_per_row;
  for (int rep = 0; rep < 3; ++rep) {
    dsketch::UnbiasedSpaceSaving sketch(spec.shard_bins, opts.seed);
    const double us = TimeUs([&] {
      for (size_t i = 0; i < shard0.size(); i += 1024) {
        sketch.UpdateBatch(Span<const uint64_t>(
            shard0.data() + i, std::min<size_t>(1024, shard0.size() - i)));
      }
    });
    ns_per_row.push_back(us * 1000.0 / static_cast<double>(shard0.size()));
  }
  l.Set("core.update_batch_ns_per_row", Median(ns_per_row), "ns");

  // query: the engine on the view the workload's queries read — the
  // frozen image for the replica, the cached merged view otherwise.
  const dsketch::UnbiasedSpaceSaving view = src.View();
  std::optional<dsketch::FrozenSketchSource> frozen =
      dsketch::FrozenSketchSource::FromBytes(image);
  std::optional<dsketch::SketchQueryEngine> engine;
  if (frozen.has_value()) {
    engine.emplace(&*frozen, plan.attrs.get());
  } else {
    engine.emplace(&view, plan.attrs.get());
  }
  std::vector<double> sum_us;
  for (size_t p = 0; p < std::min<size_t>(64, plan.predicates.size()); ++p) {
    const dsketch::Predicate where = ToPredicate(plan.predicates[p]);
    sum_us.push_back(TimeUs([&] { engine->Sum(where); }));
  }
  l.Set("query.sum_us", Median(sum_us), "us");
  l.Set("query.topk_us", MedianUs(21, [&] {
          if (frozen.has_value()) {
            dsketch::FrozenTopK(frozen->frozen(), 100);
          } else {
            dsketch::TopK(view, 100);
          }
        }),
        "us");
  l.Set("query.groupby_us", MedianUs(11, [&] { engine->GroupBy1(0); }), "us");

  // wire: freeze the view and reopen the image (vet + full validation),
  // the restore path of a replica.
  std::string frozen_bytes;
  l.Set("wire.freeze_us",
        MedianUs(5, [&] { frozen_bytes = dsketch::SerializeFrozen(view); }),
        "us");
  const std::string& reopen = image.empty() ? frozen_bytes : image;
  l.Set("wire.frozen_open_us", MedianUs(5, [&] {
          std::optional<dsketch::FrozenSketchSource> s =
              dsketch::FrozenSketchSource::FromBytes(reopen);
          if (!s.has_value() || !s->Validate()) out->correct = false;
        }),
        "us");
}

// Window layer on the workload's rows stamped into epochs, with the
// window_decay ring configuration.
void ProbeWindow(const Plan& plan, RunOutcome* out) {
  const Spec& spec = plan.spec;
  const Spec ring = MakeSpec("window_decay", spec.smoke);
  Results& l = out->per_layer;
  const dsketch::SketchServerOptions opts = ServerOptions(ring, false);
  dsketch::WindowedSketchOptions wopt = opts.window;
  wopt.merged_capacity = opts.merged_capacity;
  dsketch::WindowedSketchSource src(opts.shard, wopt);
  dsketch::WindowedSpaceSaving single(wopt);  // the ring a shard hosts

  // At least 48 epochs past a full ring (rows wrap around when the
  // workload has fewer), so every last_k gets 16 views.
  const size_t per_epoch = ring.batches_per_epoch * ring.batch_rows;
  const size_t epochs =
      std::max(plan.rows.size() / per_epoch, ring.window_epochs + 48);
  const uint64_t ks[3] = {1, std::min<uint64_t>(16, ring.window_epochs),
                          ring.window_epochs};
  std::vector<double> ingest_us, advance_us, view_us[3];
  std::vector<dsketch::EpochRow> rows(ring.batch_rows);
  for (size_t e = 0; e < epochs; ++e) {
    src.Advance(e);
    if (e > 0) advance_us.push_back(TimeUs([&] { single.AdvanceTo(e); }));
    for (size_t b = 0; b < ring.batches_per_epoch; ++b) {
      const size_t begin = e * per_epoch + b * ring.batch_rows;
      for (size_t i = 0; i < ring.batch_rows; ++i) {
        rows[i] = {plan.rows[(begin + i) % plan.rows.size()], e};
      }
      const Span<const dsketch::EpochRow> batch(rows.data(), rows.size());
      ingest_us.push_back(TimeUs([&] { src.IngestEpoch(batch); }));
      single.UpdateBatch(batch);
    }
    // Once the ring is full, one window view after fresh rows per epoch,
    // rotating last_k.
    if (e + 1 >= ring.window_epochs) {
      view_us[e % 3].push_back(TimeUs([&] { src.WindowView(ks[e % 3]); }));
    }
  }
  l.Set("window.ingest_us_per_krow",
        Median(ingest_us) * 1000.0 / static_cast<double>(ring.batch_rows),
        "us");
  l.Set("window.advance_us", Median(advance_us), "us");
  l.Set("window.view_k1_us", Median(view_us[0]), "us");
  l.Set("window.view_k16_us", Median(view_us[1]), "us");
  l.Set("window.view_kW_us", Median(view_us[2]), "us");

  // The ring codec on the merged ring (what window SNAPSHOT ships).
  const dsketch::WindowedSpaceSaving& merged = src.MergedRing();
  std::string bytes;
  l.Set("wire.snapshot_encode_us",
        MedianUs(5, [&] { bytes = dsketch::SerializeWindowed(merged); }), "us");
  l.Set("wire.snapshot_decode_us", MedianUs(5, [&] {
          if (!dsketch::DeserializeWindowed(bytes, opts.seed).has_value()) {
            out->correct = false;
          }
        }),
        "us");
  l.Set("wire.snapshot_bytes", static_cast<double>(bytes.size()), "bytes");
}

}  // namespace

void RunLayerProbes(const Plan& plan, RunOutcome* out) {
  const std::string image = ProbeService(plan, out);
  ProbeShardCoreQuery(plan, image, out);
  ProbeWindow(plan, out);
}

}  // namespace perfbench
