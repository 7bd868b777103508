// The end-to-end rounds: a fresh SketchServer per round, driven through
// SketchClient over InMemoryDuplex by this (the generator) thread, with
// every answer checked and every timing taken client-side.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/frequent_items.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/frozen_source.h"
#include "service/client.h"
#include "service/transport.h"
#include "util/flat_map.h"
#include "util/mmap_array.h"

namespace perfbench {

using dsketch::QueryScope;
using dsketch::SketchClient;
using dsketch::SketchServer;

namespace {

// Timed ops between RSS samples (a /proc read costs ~10 us).
constexpr size_t kRssEvery = 16;

struct Answer {
  double estimate = 0.0;
  double variance = 0.0;
  uint64_t items = 0;
  std::vector<dsketch::SketchEntry> topk;
  std::vector<dsketch::GroupRow> groups;
};

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.estimate != b.estimate || a.variance != b.variance ||
      a.items != b.items || a.topk.size() != b.topk.size() ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t i = 0; i < a.topk.size(); ++i) {
    if (a.topk[i].item != b.topk[i].item ||
        a.topk[i].count != b.topk[i].count) {
      return false;
    }
  }
  for (size_t i = 0; i < a.groups.size(); ++i) {
    const dsketch::GroupRow& x = a.groups[i];
    const dsketch::GroupRow& y = b.groups[i];
    if (x.key != y.key || x.estimate != y.estimate ||
        x.variance != y.variance || x.items_in_sample != y.items_in_sample) {
      return false;
    }
  }
  return true;
}

// One connection to one server: a serve thread runs Serve() on the
// server end of an in-memory duplex, the client drives the other end.
class Session {
 public:
  explicit Session(std::unique_ptr<SketchServer> server)
      : server_(std::move(server)),
        client_(duplex_.client()),
        serve_([this] {
          serve_tid_.store(CurrentTid());
          server_->Serve(duplex_.server());
        }) {}
  ~Session() { Stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SketchClient& client() { return client_; }

  // Waits for the serve thread to report its id (it is excluded from
  // the worker CPU figure).
  int64_t serve_tid() const {
    int64_t tid;
    while ((tid = serve_tid_.load()) == 0) std::this_thread::yield();
    return tid;
  }

  void Stop() {
    if (!serve_.joinable()) return;
    client_.Shutdown();
    duplex_.client().CloseWrite();  // EOF even if SHUTDOWN failed
    serve_.join();
  }

 private:
  dsketch::InMemoryDuplex duplex_;
  std::unique_ptr<SketchServer> server_;
  SketchClient client_;
  std::atomic<int64_t> serve_tid_{0};
  std::thread serve_;
};

// Everything one round measured.
struct Round {
  double setup_s = 0.0;
  double rss_before = 0.0;
  double rss_boot = 0.0;
  double rss_loaded = 0.0;
  double rss_peak = 0.0;
  double ingest_rows = 0.0;
  double ingest_busy_s = 0.0;
  std::vector<double> ingest_us;
  std::vector<double> query_us;
  std::vector<double> query_rtt_us;  // from send (query_us: from due)
  std::vector<double> lateness_us;
  std::vector<double> restore_ms;
  std::vector<Answer> accuracy;
  double worker_cpu_s = 0.0;
  int threads = 0;
  uint64_t queries = 0;
  size_t image_bytes = 0;
};

// Runs rounds and accumulates request accounting and check failures.
class Runner {
 public:
  Runner(const Plan& plan, RunOutcome* out) : plan_(plan), out_(out) {}

  Round RunRound(bool traced);

 private:
  std::unique_ptr<SketchServer> Writer(bool traced) const {
    return std::make_unique<SketchServer>(ServerOptions(plan_.spec, traced),
                                          plan_.attrs.get());
  }

  void Fail(const std::string& what) {
    out_->correct = false;
    if (out_->errors.size() < 8) out_->errors.push_back(what);
  }
  // Counts one request; false responses count as failed.
  bool Count(bool ok) {
    ++out_->attempted;
    if (!ok) ++out_->failed;
    return ok;
  }

  bool Execute(SketchClient& c, const Op& op, Answer* a);
  void CheckAnswer(const Op& op, const Answer& a);
  // Executes `op` timed; appends the latency to the matching series.
  bool Timed(SketchClient& c, const Op& op, Round* r, Answer* a);
  void RunAccuracy(SketchClient& c, Round* r, bool timed);
  void CheckEmptySum(SketchClient& c, QueryScope scope, int64_t expect,
                     Round* r);
  const Answer& Expected(const Op& op);
  void RunOpenLoop(SketchClient& c, Round* r);
  void RunClosedLoop(SketchClient& c, Round* r);
  void RunRestores(const std::string& blob, QueryScope scope, bool traced,
                   Round* r);
  void RunReplicaRestores(const std::string& image, bool traced, Round* r);

  const Plan& plan_;
  RunOutcome* out_;
  // replica: the round-0 image and its thawed-copy answers per op.
  std::string first_image_;
  std::optional<dsketch::UnbiasedSpaceSaving> thawed_;
  std::map<std::pair<int, int>, Answer> expected_;
  size_t rounds_ = 0;
};

bool Runner::Execute(SketchClient& c, const Op& op, Answer* a) {
  static const dsketch::PredicateSpec kNone;
  const dsketch::PredicateSpec& where =
      op.pred < 0 ? kNone : plan_.predicates[op.pred];
  switch (op.kind) {
    case OpKind::kIngest:
      return Count(c.IngestBatch(dsketch::Span<const uint64_t>(
          plan_.rows.data() + op.begin, op.end - op.begin)));
    case OpKind::kIngestWindowed:
      return Count(c.IngestWindowed(
          dsketch::Span<const uint64_t>(plan_.rows.data() + op.begin,
                                        op.end - op.begin),
          op.epoch));
    case OpKind::kSum: {
      std::optional<dsketch::QuerySumResponse> rsp =
          c.QuerySum(where, op.scope, op.last_k);
      if (!Count(rsp.has_value())) return false;
      a->estimate = rsp->estimate;
      a->variance = rsp->variance;
      a->items = rsp->items_in_sample;
      return true;
    }
    case OpKind::kTopK: {
      std::optional<dsketch::QueryTopKResponse> rsp =
          c.QueryTopK(kTopK, op.scope, op.last_k);
      if (!Count(rsp.has_value())) return false;
      a->topk = std::move(rsp->counts);
      return true;
    }
    case OpKind::kGroupBy: {
      std::optional<dsketch::QueryGroupByResponse> rsp =
          c.QueryGroupBy(kGroupDim, where);
      if (!Count(rsp.has_value())) return false;
      a->groups = std::move(rsp->groups);
      return true;
    }
  }
  return false;
}

void Runner::CheckAnswer(const Op& op, const Answer& a) {
  char buf[160];
  switch (op.kind) {
    case OpKind::kIngest:
    case OpKind::kIngestWindowed:
      return;
    case OpKind::kSum:
      if (op.exact_total >= 0 &&
          a.estimate != static_cast<double>(op.exact_total)) {
        std::snprintf(buf, sizeof(buf),
                      "empty-predicate SUM (last_k=%llu) = %.17g, exact %lld",
                      static_cast<unsigned long long>(op.last_k), a.estimate,
                      static_cast<long long>(op.exact_total));
        Fail(buf);
      }
      if (!(a.estimate >= 0.0) || !(a.variance >= 0.0)) {
        Fail("SUM answered a negative or NaN estimate/variance");
      }
      return;
    case OpKind::kTopK:
      if (a.topk.empty() || a.topk.size() > kTopK) {
        Fail("TOPK answered the wrong number of entries");
      }
      for (size_t i = 0; i < a.topk.size(); ++i) {
        if (a.topk[i].count <= 0 || a.topk[i].item >= plan_.spec.items ||
            (i > 0 && a.topk[i].count > a.topk[i - 1].count)) {
          Fail("TOPK entries are not positive, known and descending");
          return;
        }
      }
      return;
    case OpKind::kGroupBy: {
      double total = 0.0;
      for (const dsketch::GroupRow& g : a.groups) total += g.estimate;
      if (op.exact_total >= 0 && total != static_cast<double>(op.exact_total)) {
        std::snprintf(buf, sizeof(buf),
                      "GROUPBY estimates sum to %.17g, exact %lld", total,
                      static_cast<long long>(op.exact_total));
        Fail(buf);
      }
      return;
    }
  }
}

bool Runner::Timed(SketchClient& c, const Op& op, Round* r, Answer* a) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = Execute(c, op, a);
  const Clock::time_point t1 = Clock::now();
  if (IsIngest(op)) {
    r->ingest_us.push_back(MicrosBetween(t0, t1));
    r->ingest_busy_s += SecondsBetween(t0, t1);
    r->ingest_rows += static_cast<double>(op.end - op.begin);
  } else {
    r->query_us.push_back(MicrosBetween(t0, t1));
    r->query_rtt_us.push_back(MicrosBetween(t0, t1));
    ++r->queries;
  }
  if (ok) CheckAnswer(op, *a);
  return ok;
}

void Runner::RunAccuracy(SketchClient& c, Round* r, bool timed) {
  r->accuracy.clear();
  for (const Op& op : plan_.accuracy_ops) {
    Answer a;
    if (timed) {
      Timed(c, op, r, &a);
    } else if (Execute(c, op, &a)) {
      ++r->queries;
      CheckAnswer(op, a);
    }
    r->accuracy.push_back(a);
  }
}

void Runner::CheckEmptySum(SketchClient& c, QueryScope scope, int64_t expect,
                           Round* r) {
  Op op;
  op.kind = OpKind::kSum;
  op.scope = scope;
  op.exact_total = expect;
  Answer a;
  if (Execute(c, op, &a)) CheckAnswer(op, a);
  ++r->queries;
}

// The thawed copy's answer to a replica op (bit-identity reference).
const Answer& Runner::Expected(const Op& op) {
  const std::pair<int, int> key(static_cast<int>(op.kind), op.pred);
  auto it = expected_.find(key);
  if (it != expected_.end()) return it->second;
  dsketch::SketchQueryEngine engine(&*thawed_, plan_.attrs.get());
  const dsketch::Predicate where = op.pred < 0
                                       ? dsketch::Predicate()
                                       : ToPredicate(plan_.predicates[op.pred]);
  Answer a;
  if (op.kind == OpKind::kSum) {
    const dsketch::SubsetSumEstimate est = engine.Sum(where);
    a.estimate = est.estimate;
    a.variance = est.variance;
    a.items = est.items_in_sample;
  } else if (op.kind == OpKind::kTopK) {
    a.topk = dsketch::TopK(*thawed_, kTopK);
  } else {
    for (const auto& [k, est] : engine.GroupBy1(kGroupDim, where)) {
      a.groups.push_back({k, est.estimate, est.variance, est.items_in_sample});
    }
    std::sort(a.groups.begin(), a.groups.end(),
              [](const dsketch::GroupRow& x, const dsketch::GroupRow& y) {
                return x.key < y.key;
              });
  }
  return expected_.emplace(key, std::move(a)).first->second;
}

void SampleRss(Round* r) { r->rss_peak = std::max(r->rss_peak, RssMb()); }

Round Runner::RunRound(bool traced) {
  const Spec& spec = plan_.spec;
  const bool replica = spec.name == "replica";
  const QueryScope scope =
      spec.window_epochs > 0 ? QueryScope::kWindow : QueryScope::kCounts;
  Round r;
  // Each round starts from a trimmed heap, so the memory a round's
  // server takes shows in RSS instead of being served from what the
  // previous round's server freed.
  malloc_trim(0);
  r.rss_before = RssMb();

  // --- setup: server construction + preload -----------------------------
  // The replica's image and source outlive the session serving them.
  std::string image;
  std::optional<dsketch::FrozenSketchSource> frozen;
  const Clock::time_point setup_start = Clock::now();
  auto main = std::make_unique<Session>(Writer(traced));
  r.rss_boot = RssMb();
  for (const Op& op : plan_.setup_ops) {
    Answer a;
    if (replica) {
      // The writer's load is the replica workload's ingest stretch.
      Timed(main->client(), op, &r, &a);
    } else {
      Execute(main->client(), op, &a);
    }
  }
  const Clock::time_point flush_start = Clock::now();
  std::optional<dsketch::StatsResponse> stats = main->client().Stats();
  Count(stats.has_value());
  if (stats.has_value() && scope == QueryScope::kCounts &&
      stats->rows_ingested !=
          static_cast<uint64_t>(spec.preload_batches * spec.batch_rows)) {
    Fail("STATS after preload reports the wrong row count");
  }
  if (replica) {
    r.ingest_busy_s += SecondsBetween(flush_start, Clock::now());
    std::optional<std::string> blob =
        main->client().Snapshot(QueryScope::kCounts, /*frozen=*/true);
    if (Count(blob.has_value())) image = std::move(*blob);
    main.reset();  // the writer is frozen; its fleet goes away
    frozen = dsketch::FrozenSketchSource::FromBytes(image);
    if (!frozen.has_value() || !frozen->Validate()) {
      Fail("writer's frozen image does not validate");
      return r;
    }
    main = std::make_unique<Session>(std::make_unique<SketchServer>(
        ReplicaServerOptions(spec, traced), &*frozen, plan_.attrs.get()));
  }
  r.setup_s = SecondsBetween(setup_start, Clock::now());
  r.rss_loaded = RssMb();
  SampleRss(&r);

  // Replica bit-identity reference: a thawed copy of the same image.
  r.image_bytes = image.size();
  if (replica) {
    if (first_image_.empty()) {
      first_image_ = image;
      thawed_ = dsketch::ThawFrozen(image, 1);
      if (!thawed_.has_value()) Fail("frozen image does not thaw");
    } else if (image != first_image_) {
      Fail("writer image differs between rounds of one seed");
    }
    if (!thawed_.has_value()) return r;
    for (const Op& op : plan_.timed_ops) Expected(op);
  }

  // --- timed phase, accuracy, exact totals -------------------------------
  SketchClient& c = main->client();
  if (spec.offered_rows_per_s > 0.0) {
    RunOpenLoop(c, &r);
  } else {
    RunClosedLoop(c, &r);
  }
  if (!replica) {
    // Final flush: STATS drains the counts fleet (window rows were
    // drained by the phase's last query).
    const Clock::time_point t0 = Clock::now();
    stats = c.Stats();
    Count(stats.has_value());
    if (scope == QueryScope::kCounts) {
      r.ingest_busy_s += SecondsBetween(t0, Clock::now());
    }
    const uint64_t rows = plan_.rows.size();
    if (stats.has_value() &&
        (scope == QueryScope::kWindow
             ? stats->windowed_rows_ingested != rows
             : stats->rows_ingested != rows ||
                   stats->total_count != static_cast<int64_t>(rows))) {
      Fail("STATS after the timed phase reports the wrong row count");
    }
  }
  SampleRss(&r);
  if (rounds_++ == 0 || spec.accuracy_every_round) {
    RunAccuracy(c, &r, /*timed=*/spec.name == "ingest");
  }
  CheckEmptySum(c, scope, plan_.final_rows, &r);
  SampleRss(&r);
  r.worker_cpu_s = CpuSecondsExcluding({CurrentTid(), main->serve_tid()});

  // --- restore -> first answer cycles -----------------------------------
  if (replica) {
    main.reset();
    RunReplicaRestores(image, traced, &r);
  } else {
    std::optional<std::string> blob = c.Snapshot(scope);
    main.reset();
    if (Count(blob.has_value())) RunRestores(*blob, scope, traced, &r);
  }
  return r;
}

void Runner::RunOpenLoop(SketchClient& c, Round* r) {
  // Slot i is due at start + i * interval whether or not the previous
  // request finished; latency runs from the due time.
  const Spec& spec = plan_.spec;
  const auto interval = std::chrono::duration<double>(
      static_cast<double>(spec.batch_rows) / spec.offered_rows_per_s);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < plan_.timed_ops.size(); ++i) {
    const Op& op = plan_.timed_ops[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(interval * i);
    // Sleep to just short of the slot, then spin: the send is on time
    // even when the sleep overshoots.
    const Clock::time_point wake = due - std::chrono::microseconds(200);
    if (Clock::now() < wake) std::this_thread::sleep_until(wake);
    while (Clock::now() < due) {
    }
    const Clock::time_point send = Clock::now();
    Answer a;
    const bool ok = Execute(c, op, &a);
    const Clock::time_point done = Clock::now();
    r->lateness_us.push_back(MicrosBetween(due, send));
    if (IsIngest(op)) {
      r->ingest_us.push_back(MicrosBetween(due, done));
      r->ingest_busy_s += SecondsBetween(send, done);
      r->ingest_rows += static_cast<double>(op.end - op.begin);
    } else {
      r->query_us.push_back(MicrosBetween(due, done));
      r->query_rtt_us.push_back(MicrosBetween(send, done));
      ++r->queries;
    }
    if (ok) CheckAnswer(op, a);
    if (i == plan_.timed_ops.size() / 2) r->threads = ThreadCount();
    if (i % kRssEvery == 0) SampleRss(r);
  }
}

void Runner::RunClosedLoop(SketchClient& c, Round* r) {
  const bool replica = plan_.spec.name == "replica";
  for (size_t i = 0; i < plan_.timed_ops.size(); ++i) {
    const Op& op = plan_.timed_ops[i];
    Answer a;
    if (Timed(c, op, r, &a) && replica && !SameAnswer(a, Expected(op))) {
      Fail("replica answer differs from the thawed copy's");
    }
    if (i == plan_.timed_ops.size() / 2) r->threads = ThreadCount();
    if (i % kRssEvery == 0) SampleRss(r);
  }
}

// Snapshot bytes -> fresh writer -> RESTORE -> first answer, which must
// be the exact row total.
void Runner::RunRestores(const std::string& blob, QueryScope scope,
                         bool traced, Round* r) {
  for (size_t i = 0; i < plan_.spec.restore_cycles; ++i) {
    Op first;
    first.kind = OpKind::kSum;
    first.scope = scope;
    first.exact_total = plan_.final_rows;
    Answer a;
    const Clock::time_point t0 = Clock::now();
    Session s(Writer(traced));
    const bool ok = Count(s.client().Restore(blob, scope)) &&
                    Execute(s.client(), first, &a);
    r->restore_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    ++r->queries;
    if (ok) CheckAnswer(first, a);
  }
}

// Image bytes -> FromBytes + Validate -> new replica server -> first
// answer, which must match the thawed copy's bit for bit.
void Runner::RunReplicaRestores(const std::string& image, bool traced,
                                Round* r) {
  Op first;
  first.kind = OpKind::kSum;
  first.pred = 0;
  for (size_t i = 0; i < plan_.spec.restore_cycles; ++i) {
    Answer a;
    const Clock::time_point t0 = Clock::now();
    std::optional<dsketch::FrozenSketchSource> src =
        dsketch::FrozenSketchSource::FromBytes(image);
    if (!src.has_value() || !src->Validate()) {
      Fail("restored image does not validate");
      continue;
    }
    Session s(std::make_unique<SketchServer>(
        ReplicaServerOptions(plan_.spec, traced), &*src, plan_.attrs.get()));
    const bool ok = Execute(s.client(), first, &a);
    r->restore_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    ++r->queries;
    if (ok && !SameAnswer(a, Expected(first))) {
      Fail("restored replica's first answer differs from the thawed copy's");
    }
  }
}

// Relative RMSE and 95% CI coverage of the accuracy answers, in %.
std::pair<double, double> Accuracy(const Plan& plan,
                                   const std::vector<Answer>& answers) {
  double sq = 0.0;
  double covered = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const double truth = plan.accuracy_truth[i];
    const double err = answers[i].estimate - truth;
    sq += (err / truth) * (err / truth);
    if (std::fabs(err) <= 1.959963984540054 * std::sqrt(answers[i].variance)) {
      covered += 1.0;
    }
  }
  const double n = static_cast<double>(answers.size());
  return {100.0 * std::sqrt(sq / n), 100.0 * covered / n};
}

// Registry reads for the traced per-layer figures.
struct Telemetry {
  uint64_t merges = 0;
  uint64_t node_hits = 0, node_misses = 0;
  uint64_t memo_hits = 0, memo_misses = 0;
  uint64_t fold_count = 0, fold_sum = 0;

  static Telemetry Read() {
    const dsketch::obs::MetricsRegistry& reg =
        dsketch::obs::MetricsRegistry::Global();
    Telemetry t;
    auto counter = [&reg](const char* name) {
      const dsketch::obs::Counter* c = reg.FindCounter(name);
      return c != nullptr ? c->Value() : uint64_t{0};
    };
    if (const auto* h = reg.FindHistogram("dsketch_shard_snapshot_merge_us")) {
      t.merges = h->Count();
    }
    if (const auto* h = reg.FindHistogram("dsketch_window_fold_us")) {
      t.fold_count = h->Count();
      t.fold_sum = h->Sum();
    }
    t.node_hits = counter("dsketch_window_node_cache_hits_total");
    t.node_misses = counter("dsketch_window_node_cache_misses_total");
    t.memo_hits = counter("dsketch_window_combine_memo_hits_total");
    t.memo_misses = counter("dsketch_window_combine_memo_misses_total");
    return t;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
std::vector<double> PerRound(const std::vector<Round>& rounds, F f) {
  std::vector<double> out;
  for (const Round& r : rounds) out.push_back(f(r));
  return out;
}

std::vector<double> Pooled(const std::vector<Round>& rounds,
                           std::vector<double> Round::*series) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    out.insert(out.end(), (r.*series).begin(), (r.*series).end());
  }
  return out;
}

double RoundMrowsPerS(const Round& r) {
  return Ratio(r.ingest_rows, r.ingest_busy_s) / 1e6;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

RunOutcome RunWorkload(const Plan& plan, double seconds, bool traced) {
  RunOutcome out;
  Runner runner(plan, &out);
  const Spec& spec = plan.spec;
  const Telemetry before = Telemetry::Read();
  const uint64_t spans_before = dsketch::obs::FlightRecorder::Global().recorded();
  std::vector<Round> plain;   // untraced rounds: the end-to-end figures
  std::vector<Round> tracedr;  // traced rounds (traced runs only)
  const Clock::time_point start = Clock::now();
  // Time cap: the sample floor below may extend a run, never past this.
  const double cap_s = std::max(3.0 * seconds, seconds + 30.0);
  auto enough = [&] {
    const double elapsed = SecondsBetween(start, Clock::now());
    if (elapsed >= cap_s) return true;
    if (plain.size() < spec.min_rounds || elapsed < seconds) return false;
    if (traced || spec.smoke) return true;
    // p99 needs ten samples beyond it in every latency series.
    return Pooled(plain, &Round::ingest_us).size() >= kMinP99Samples &&
           Pooled(plain, &Round::query_us).size() >= kMinP99Samples;
  };
  do {
    plain.push_back(runner.RunRound(false));
    if (traced) tracedr.push_back(runner.RunRound(true));
  } while (out.correct && !enough());

  // Every round of one seed must reproduce the same accuracy answers
  // (the sharded ingest path is deterministic given the stream).
  for (const std::vector<Round>* set : {&plain, &tracedr}) {
    for (const Round& r : *set) {
      if (r.accuracy.size() != plain[0].accuracy.size()) continue;
      for (size_t i = 0; i < r.accuracy.size(); ++i) {
        if (!SameAnswer(r.accuracy[i], plain[0].accuracy[i])) {
          out.correct = false;
          out.errors.push_back("accuracy answers differ between rounds");
          break;
        }
      }
    }
  }

  const std::vector<double> ingest_us = Pooled(plain, &Round::ingest_us);
  const std::vector<double> query_us = Pooled(plain, &Round::query_us);
  const std::vector<double> lateness = Pooled(plain, &Round::lateness_us);
  const auto [rrmse, coverage] =
      plain[0].accuracy.size() == plan.accuracy_truth.size()
          ? Accuracy(plan, plain[0].accuracy)
          : std::pair<double, double>(0.0, 0.0);

  Results& e = out.end_to_end;
  e.Set("setup_s", Median(PerRound(plain, [](const Round& r) {
          return r.setup_s;
        })), "s");
  e.Set("mem_peak_mb", Median(PerRound(plain, [](const Round& r) {
          return r.rss_peak - r.rss_before;
        })), "MB");
  e.Set("ingest_mrows_per_s", Median(PerRound(plain, RoundMrowsPerS)),
        "Mrows/s");
  e.Set("ingest_p50_us", Quantile(ingest_us, 0.5), "us");
  e.Set("ingest_p99_us", BlockP99(ingest_us), "us");
  e.Set("query_p50_us", Quantile(query_us, 0.5), "us");
  e.Set("query_p99_us", BlockP99(query_us), "us");
  e.Set("restore_first_answer_ms", Median(Pooled(plain, &Round::restore_ms)),
        "ms");
  e.Set("subset_rrmse_pct", rrmse, "%");
  e.Set("ci_coverage_pct", coverage, "%");

  std::map<std::string, std::string>& p = out.params;
  p["workload"] = spec.name;
  p["seed"] = std::to_string(plan.seed);
  p["scale"] = spec.smoke ? "smoke" : "full";
  p["nproc"] = std::to_string(std::thread::hardware_concurrency());
  p["thp"] = ReadFirstLine("/sys/kernel/mm/transparent_hugepage/enabled");
  p["probe_isa"] = dsketch::FlatMapProbeIsa();
  p["metrics"] = dsketch::obs::MetricsBuildMode();
  p["alloc_mode"] = dsketch::AllocModeName(dsketch::GlobalAllocMode());
  p["shards"] = std::to_string(spec.shards);
  p["threads_running"] = std::to_string(
      static_cast<int>(Median(PerRound(plain, [](const Round& r) {
        return static_cast<double>(r.threads);
      }))));
  p["rounds"] = std::to_string(plain.size());
  p["rows_per_round"] = std::to_string(plan.rows.size());
  p["ingest_samples"] = std::to_string(ingest_us.size());
  p["query_samples"] = std::to_string(query_us.size());
  p["p99_has_10_beyond"] = ingest_us.size() >= kMinP99Samples &&
                                   query_us.size() >= kMinP99Samples
                               ? "true"
                               : "false";
  p["loop"] = spec.offered_rows_per_s > 0.0
                  ? "open@" + Num(spec.offered_rows_per_s) + "rows/s"
                  : "closed";
  p["gen_lateness_p99_us"] = Num(Quantile(lateness, 0.99));
  p["gen_lateness_max_us"] =
      Num(lateness.empty() ? 0.0
                           : *std::max_element(lateness.begin(),
                                               lateness.end()));
  if (plain[0].image_bytes > 0) {
    p["image_bytes"] = std::to_string(plain[0].image_bytes);
  }
  if (!traced) return out;

  // --- per-layer figures of the end-to-end path (traced runs) -----------
  const Telemetry after = Telemetry::Read();
  std::vector<Round> all = plain;
  all.insert(all.end(), tracedr.begin(), tracedr.end());
  double queries = 0.0;
  for (const Round& r : all) queries += static_cast<double>(r.queries);
  Results& l = out.per_layer;
  l.Set("shard.view_cache_hit_ratio",
        std::max(0.0, 1.0 - Ratio(static_cast<double>(after.merges -
                                                       before.merges),
                                  queries)),
        "ratio");
  l.Set("shard.worker_cpu_s", Median(PerRound(all, [](const Round& r) {
          return r.worker_cpu_s;
        })), "s");
  int64_t highwater = 0;
  for (size_t s = 0; s < spec.shards; ++s) {
    if (const dsketch::obs::Gauge* g =
            dsketch::obs::MetricsRegistry::Global().FindGauge(
                "dsketch_shard_queue_depth_highwater{shard=\"" +
                std::to_string(s) + "\"}")) {
      highwater = std::max(highwater, g->Value());
    }
  }
  l.Set("shard.queue_highwater_rows", static_cast<double>(highwater), "rows");
  l.Set("window.node_cache_hit_ratio",
        Ratio(static_cast<double>(after.node_hits - before.node_hits),
              static_cast<double>(after.node_hits - before.node_hits +
                                  after.node_misses - before.node_misses)),
        "ratio");
  l.Set("window.combine_memo_hit_ratio",
        Ratio(static_cast<double>(after.memo_hits - before.memo_hits),
              static_cast<double>(after.memo_hits - before.memo_hits +
                                  after.memo_misses - before.memo_misses)),
        "ratio");
  l.Set("window.fold_us",
        Ratio(static_cast<double>(after.fold_sum - before.fold_sum),
              static_cast<double>(after.fold_count - before.fold_count)),
        "us");
  l.Set("util.rss_boot_mb", Median(PerRound(all, [](const Round& r) {
          return r.rss_boot - r.rss_before;
        })), "MB");
  l.Set("util.rss_loaded_mb", Median(PerRound(all, [](const Round& r) {
          return r.rss_loaded - r.rss_before;
        })), "MB");
  // Root "request" spans the flight recorder still holds (the tail of
  // the last traced round): server-side time per request.
  std::vector<double> request_spans;
  for (const dsketch::obs::Span& s :
       dsketch::obs::FlightRecorder::Global().Dump()) {
    if (s.parent_id == 0 && std::string(s.name) == "request") {
      request_spans.push_back(static_cast<double>(s.end_us - s.start_us));
    }
  }
  l.Set("service.request_span_us", Median(request_spans), "us");
  l.Set("obs.spans_per_request",
        Ratio(static_cast<double>(
                  dsketch::obs::FlightRecorder::Global().recorded() -
                  spans_before),
              static_cast<double>(out.attempted)),
        "count");

  // Tracing overhead on the workload's headline metric, traced rounds
  // vs the interleaved untraced rounds of this run.
  const bool throughput_headline = spec.name == "ingest";
  auto headline = [&](const std::vector<Round>& rs) {
    if (throughput_headline) return Median(PerRound(rs, RoundMrowsPerS));
    return Quantile(Pooled(rs, &Round::query_us), 0.5);
  };
  const double base = headline(plain);
  const double with_trace = headline(tracedr);
  l.Set("obs.trace_overhead_pct",
        100.0 * (throughput_headline ? Ratio(base, with_trace) - 1.0
                                     : Ratio(with_trace, base) - 1.0),
        "%");
  p["trace_overhead_base"] =
      std::string(throughput_headline ? "ingest_mrows_per_s" : "query_p50_us") +
      " untraced=" + Num(base) + " traced=" + Num(with_trace);
  l.Set("service.query_rtt_us",
        Quantile(Pooled(plain, &Round::query_rtt_us), 0.5), "us");
  out.query_rtt_us = plain.back().query_rtt_us;
  return out;
}

}  // namespace perfbench
