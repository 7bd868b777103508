// Shared declarations of the end-to-end benchmark (see README.md).
//
// A workload is a plan of operations built from the seed before any
// clock starts: the setup ops that bring a fresh server to the timed
// phase's starting state, the timed ops, and the accuracy ops (a fixed
// predicate set with exact truth). One round runs the plan once against
// a fresh SketchServer through SketchClient over InMemoryDuplex; a run
// repeats rounds until its time budget is spent and reports medians.

#ifndef DSKETCH_PERFBENCH_BENCH_H_
#define DSKETCH_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/attribute_table.h"
#include "query/predicate.h"
#include "service/protocol.h"
#include "service/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- sample statistics ------------------------------------------------

double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double Quantile(std::vector<double> v, double q);
/// Samples a p99 needs so that at least ten lie beyond it.
inline constexpr size_t kMinP99Samples = 1000;
/// p99 of chronological samples: the median of the p99s of consecutive
/// blocks of at least kMinP99Samples each (the plain p99 when there are
/// fewer than two blocks), so a burst of host noise moves one block.
double BlockP99(const std::vector<double>& samples);

// --- process introspection (/proc/self) --------------------------------

double RssMb();
int ThreadCount();
/// This thread's kernel id.
int64_t CurrentTid();
/// CPU seconds (user + system) of this process's threads whose ids are
/// not in `exclude`.
double CpuSecondsExcluding(const std::vector<int64_t>& exclude);
/// One-line contents of a system file ("" when unreadable).
std::string ReadFirstLine(const char* path);

// --- workload description ---------------------------------------------

enum class OpKind : uint8_t {
  kIngest,          // INGEST_BATCH of rows[begin, end)
  kIngestWindowed,  // INGEST_BATCH (windowed) of rows[begin, end) @ epoch
  kSum,             // QUERY_SUM
  kTopK,            // QUERY_TOPK
  kGroupBy,         // QUERY_GROUPBY (1-way)
};

struct Op {
  OpKind kind = OpKind::kIngest;
  size_t begin = 0;  // row range (ingest kinds)
  size_t end = 0;
  uint64_t epoch = 0;  // windowed ingest stamp
  dsketch::QueryScope scope = dsketch::QueryScope::kCounts;
  uint64_t last_k = 0;  // window scope
  int pred = -1;        // index into Plan::predicates, -1 = no predicate
  // Exact answer of an empty-predicate SUM / GROUPBY total (rows the
  // queried scope holds when the op runs); < 0 when not checkable.
  int64_t exact_total = -1;
};

bool IsIngest(const Op& op);

/// TOPK size of the timed queries.
inline constexpr uint64_t kTopK = 100;
/// GROUPBY dimension of the timed queries: with no predicate, its group
/// estimates sum to the scope's exact row count.
inline constexpr uint64_t kGroupDim = 0;

/// Per-workload sizes (full scale, or the tiny smoke scale).
struct Spec {
  std::string name;
  bool smoke = false;
  size_t items = size_t{1} << 20;  // Zipf(1.1) support
  size_t batch_rows = 8192;
  size_t shards = 2;
  size_t shard_bins = 4096;
  size_t merged_bins = 4096;
  size_t preload_batches = 0;  // setup-phase ingest batches
  size_t timed_batches = 0;    // timed-phase ingest batches
  // serve_mixed: open-loop offered rate; every query_every-th slot is a
  // query. 0 = closed loop.
  double offered_rows_per_s = 0.0;
  size_t query_every = 0;
  size_t replica_queries = 0;  // replica: timed queries per round
  size_t restore_cycles = 0;   // restore -> first answer cycles per round
  size_t predicates = 512;     // accuracy predicate set
  // false: the accuracy set runs in the first round only (its answers
  // repeat exactly; the replica's image equality is checked instead).
  bool accuracy_every_round = true;
  // window_decay
  size_t window_epochs = 0;  // ring length W (0 = counts scope workload)
  size_t batches_per_epoch = 0;
  size_t timed_epochs = 0;
  size_t epoch_bins = 1024;
  double half_life_epochs = 0.0;
  size_t min_rounds = 3;
};

/// Throws std::invalid_argument for an unknown workload name.
Spec MakeSpec(const std::string& workload, bool smoke);

/// Everything generated from the seed before a clock starts.
struct Plan {
  Spec spec;
  uint64_t seed = 0;
  std::unique_ptr<dsketch::AttributeTable> attrs;
  std::vector<uint64_t> rows;  // every row the round ingests, in order
  std::vector<dsketch::PredicateSpec> predicates;
  std::vector<Op> setup_ops;
  std::vector<Op> timed_ops;
  std::vector<Op> accuracy_ops;  // one SUM per accuracy predicate
  std::vector<double> accuracy_truth;  // exact sum per accuracy op
  int64_t final_rows = 0;  // rows the queried scope holds at the end
};

Plan MakePlan(const Spec& spec, uint64_t seed);

/// Predicate of the engine matching a wire PredicateSpec.
dsketch::Predicate ToPredicate(const dsketch::PredicateSpec& spec);

/// The server configuration of a workload (traced = every request's
/// span tree captured).
dsketch::SketchServerOptions ServerOptions(const Spec& spec, bool traced);
/// A frozen-image replica's configuration: its (unused) writer fleet is
/// the small counts one.
dsketch::SketchServerOptions ReplicaServerOptions(const Spec& spec,
                                                  bool traced);

// --- results ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Outcome of a whole run (all rounds).
struct RunOutcome {
  Results end_to_end;       // the untraced metrics
  Results per_layer;        // filled by traced runs
  std::map<std::string, std::string> params;  // machine + run parameters
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;  // first few correctness failures
  // Client round trips (from send) of the last untraced round's queries,
  // in plan order: the probes pair them with the same requests replayed
  // through HandleRequest.
  std::vector<double> query_rtt_us;
};

/// Runs the workload's rounds for `seconds`. With `traced`, alternates
/// untraced and traced rounds and fills the per-layer metrics that come
/// from the end-to-end path (METRICS, flight recorder, /proc).
RunOutcome RunWorkload(const Plan& plan, double seconds, bool traced);

/// Direct calls into each layer on the plan's inputs (traced runs).
void RunLayerProbes(const Plan& plan, RunOutcome* out);

}  // namespace perfbench

#endif  // DSKETCH_PERFBENCH_BENCH_H_
