// Workload sizes and the seed-derived plan: rows, attribute table,
// predicate set with exact truth, and the setup / timed / accuracy ops.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "util/alias.h"
#include "util/random.h"

namespace perfbench {

using dsketch::PredicateSpec;
using dsketch::QueryScope;

namespace {

// Attribute dimensions: cardinalities of dim 0, 1, 2.
constexpr uint32_t kDimCard[3] = {8, 64, 512};
constexpr double kZipfS = 1.1;

}  // namespace

bool IsIngest(const Op& op) {
  return op.kind == OpKind::kIngest || op.kind == OpKind::kIngestWindowed;
}

Spec MakeSpec(const std::string& workload, bool smoke) {
  Spec s;
  s.name = workload;
  s.smoke = smoke;
  if (workload == "ingest") {
    s.preload_batches = 128;
    s.timed_batches = 512;
    s.restore_cycles = 8;
  } else if (workload == "serve_mixed") {
    s.preload_batches = 128;
    s.timed_batches = 256;
    s.query_every = 3;
    s.offered_rows_per_s = 2.0e6;
    s.restore_cycles = 16;
  } else if (workload == "replica") {
    // 131072 entries: a 3 MiB frozen image, larger than one core's L2.
    s.shard_bins = 65536;
    s.merged_bins = 131072;
    s.preload_batches = 512;
    s.replica_queries = 200;
    s.restore_cycles = 16;
    s.accuracy_every_round = false;
  } else if (workload == "window_decay") {
    s.shards = 1;
    s.batch_rows = 4096;
    s.window_epochs = 256;
    s.batches_per_epoch = 2;
    s.timed_epochs = 64;
    s.epoch_bins = 256;
    s.half_life_epochs = 32.0;
    s.restore_cycles = 8;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  if (smoke) {
    // Same code paths, tiny sizes: a round takes milliseconds.
    s.items = size_t{1} << 14;
    s.batch_rows = 512;
    s.shard_bins = std::min<size_t>(s.shard_bins, 1024);
    s.merged_bins = std::min<size_t>(s.merged_bins, 2048);
    s.preload_batches = std::min<size_t>(s.preload_batches, 16);
    s.timed_batches = std::min<size_t>(s.timed_batches, 24);
    s.replica_queries = std::min<size_t>(s.replica_queries, 20);
    s.restore_cycles = std::min<size_t>(s.restore_cycles, 2);
    s.predicates = 32;
    s.offered_rows_per_s = std::min(s.offered_rows_per_s, 0.2e6);
    if (s.window_epochs > 0) {
      s.window_epochs = 16;
      s.timed_epochs = 12;
      s.epoch_bins = 128;
      s.half_life_epochs = 4.0;
    }
    s.min_rounds = 1;
  }
  return s;
}

dsketch::Predicate ToPredicate(const PredicateSpec& spec) {
  dsketch::Predicate out;
  for (const PredicateSpec::Condition& c : spec.conditions) {
    out.WhereIn(static_cast<size_t>(c.dim), c.values);
  }
  return out;
}

dsketch::SketchServerOptions ServerOptions(const Spec& spec, bool traced) {
  dsketch::SketchServerOptions o;
  o.shard.num_shards = spec.shards;
  o.shard.shard_capacity = spec.shard_bins;
  o.merged_capacity = spec.merged_bins;
  if (spec.window_epochs > 0) {
    o.window.window_epochs = spec.window_epochs;
    o.window.epoch_capacity = spec.epoch_bins;
    o.window.half_life_epochs = spec.half_life_epochs;
  }
  o.trace_sample = traced ? 1 : 0;
  return o;
}

dsketch::SketchServerOptions ReplicaServerOptions(const Spec& spec,
                                                  bool traced) {
  dsketch::SketchServerOptions o = ServerOptions(spec, traced);
  o.shard.shard_capacity = 4096;
  o.merged_capacity = 4096;
  return o;
}

namespace {

// `count` distinct values of [0, card), sorted.
std::vector<uint32_t> PickValues(dsketch::Rng& rng, uint32_t card,
                                 size_t count) {
  std::vector<uint32_t> all(card);
  std::iota(all.begin(), all.end(), 0u);
  rng.Shuffle(all.data(), all.size());
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

// Accuracy predicates: two families of selectivity 1/8 each, so every
// predicate's truth is a sizeable share of the stream — dim2 IN 64 of
// 512 values, and dim0 IN 4 of 8 AND dim1 IN 16 of 64.
std::vector<PredicateSpec> MakePredicates(dsketch::Rng& rng, size_t n) {
  std::vector<PredicateSpec> out(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      out[i].WhereIn(2, PickValues(rng, kDimCard[2], 64));
    } else {
      out[i].WhereIn(0, PickValues(rng, kDimCard[0], 4));
      out[i].WhereIn(1, PickValues(rng, kDimCard[1], 16));
    }
  }
  return out;
}

// Exact sum of every predicate over rows[begin, end).
std::vector<double> ExactSums(const Plan& plan, size_t begin, size_t end) {
  std::vector<int64_t> per_item(plan.spec.items, 0);
  for (size_t i = begin; i < end; ++i) ++per_item[plan.rows[i]];
  // Marginals the two predicate families evaluate over.
  std::vector<int64_t> by_dim2(kDimCard[2], 0);
  std::vector<int64_t> by_dim01(kDimCard[0] * kDimCard[1], 0);
  for (size_t item = 0; item < per_item.size(); ++item) {
    if (per_item[item] == 0) continue;
    by_dim2[plan.attrs->Get(item, 2)] += per_item[item];
    by_dim01[plan.attrs->Get(item, 0) * kDimCard[1] +
             plan.attrs->Get(item, 1)] += per_item[item];
  }
  std::vector<double> out;
  for (const PredicateSpec& p : plan.predicates) {
    int64_t sum = 0;
    if (p.conditions.size() == 1) {
      for (uint32_t v : p.conditions[0].values) sum += by_dim2[v];
    } else {
      for (uint32_t a : p.conditions[0].values) {
        for (uint32_t b : p.conditions[1].values) {
          sum += by_dim01[a * kDimCard[1] + b];
        }
      }
    }
    out.push_back(static_cast<double>(sum));
  }
  return out;
}

Op IngestOp(size_t batch, size_t batch_rows) {
  Op op;
  op.kind = OpKind::kIngest;
  op.begin = batch * batch_rows;
  op.end = op.begin + batch_rows;
  return op;
}

Op SumOp(int pred, QueryScope scope = QueryScope::kCounts,
         uint64_t last_k = 0) {
  Op op;
  op.kind = OpKind::kSum;
  op.pred = pred;
  op.scope = scope;
  op.last_k = last_k;
  return op;
}

Op TopKOp() {
  Op op;
  op.kind = OpKind::kTopK;
  return op;
}

Op GroupByOp(int64_t exact_total) {
  Op op;
  op.kind = OpKind::kGroupBy;
  op.exact_total = exact_total;
  return op;
}

}  // namespace

Plan MakePlan(const Spec& spec, uint64_t seed) {
  Plan plan;
  plan.spec = spec;
  plan.seed = seed;
  dsketch::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eed);

  plan.attrs = std::make_unique<dsketch::AttributeTable>(3);
  for (size_t i = 0; i < spec.items; ++i) {
    plan.attrs->AddItem({static_cast<uint32_t>(rng.NextBounded(kDimCard[0])),
                         static_cast<uint32_t>(rng.NextBounded(kDimCard[1])),
                         static_cast<uint32_t>(rng.NextBounded(kDimCard[2]))});
  }
  plan.predicates = MakePredicates(rng, spec.predicates);

  const bool window = spec.window_epochs > 0;
  const size_t total_batches =
      window ? (spec.window_epochs + spec.timed_epochs) * spec.batches_per_epoch
             : spec.preload_batches + spec.timed_batches;
  std::vector<double> weights(spec.items);
  for (size_t r = 0; r < spec.items; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -kZipfS);
  }
  const dsketch::AliasTable zipf(weights);
  plan.rows.resize(total_batches * spec.batch_rows);
  for (uint64_t& row : plan.rows) row = zipf.Sample(rng);

  const int n_pred = static_cast<int>(plan.predicates.size());
  if (window) {
    const size_t per_epoch = spec.batches_per_epoch * spec.batch_rows;
    size_t batch = 0;
    auto ingest_epoch = [&](uint64_t epoch, std::vector<Op>* ops) {
      for (size_t b = 0; b < spec.batches_per_epoch; ++b, ++batch) {
        Op op = IngestOp(batch, spec.batch_rows);
        op.kind = OpKind::kIngestWindowed;
        op.epoch = epoch;
        ops->push_back(op);
      }
    };
    for (uint64_t e = 0; e < spec.window_epochs; ++e) {
      ingest_epoch(e, &plan.setup_ops);
    }
    // Timed: each epoch's batches, then three window queries, last_k =
    // 1, 16 and W: the first re-merges the ring the fresh rows dirtied,
    // the other two reuse its merge cache. Queries alternate the empty
    // predicate (exact row count of the queried epochs) and a filtered
    // one.
    const uint64_t ks[3] = {1, std::min<uint64_t>(16, spec.window_epochs),
                            spec.window_epochs};
    size_t query = 0;
    for (size_t j = 0; j < spec.timed_epochs; ++j) {
      const uint64_t epoch = spec.window_epochs + j;
      ingest_epoch(epoch, &plan.timed_ops);
      for (uint64_t k : ks) {
        Op q = SumOp(query % 2 == 0 ? -1 : static_cast<int>(query % n_pred),
                     QueryScope::kWindow, k);
        if (q.pred < 0) {
          q.exact_total = static_cast<int64_t>(
              std::min<uint64_t>(k, epoch + 1) * per_epoch);
        }
        plan.timed_ops.push_back(q);
        ++query;
      }
    }
    const size_t window_rows = spec.window_epochs * per_epoch;
    plan.final_rows = static_cast<int64_t>(window_rows);
    plan.accuracy_truth =
        ExactSums(plan, plan.rows.size() - window_rows, plan.rows.size());
    for (int p = 0; p < n_pred; ++p) {
      plan.accuracy_ops.push_back(SumOp(p, QueryScope::kWindow, 0));
    }
    return plan;
  }

  for (size_t b = 0; b < spec.preload_batches; ++b) {
    plan.setup_ops.push_back(IngestOp(b, spec.batch_rows));
  }
  const int64_t preload_rows =
      static_cast<int64_t>(spec.preload_batches * spec.batch_rows);
  if (spec.name == "serve_mixed") {
    // Open-loop slots: every query_every-th slot is a query, rotating a
    // filtered SUM, TOPK and GROUPBY; each follows fresh rows.
    size_t batch = spec.preload_batches;
    size_t query = 0;
    while (batch < spec.preload_batches + spec.timed_batches) {
      const size_t slot = plan.timed_ops.size();
      if (slot % spec.query_every == spec.query_every - 1) {
        const int64_t rows_so_far =
            static_cast<int64_t>(batch * spec.batch_rows);
        switch (query++ % 3) {
          case 0:
            plan.timed_ops.push_back(
                SumOp(static_cast<int>(query % n_pred)));
            break;
          case 1:
            plan.timed_ops.push_back(TopKOp());
            break;
          default:
            plan.timed_ops.push_back(GroupByOp(rows_so_far));
        }
      } else {
        plan.timed_ops.push_back(IngestOp(batch++, spec.batch_rows));
      }
    }
  } else if (spec.name == "replica") {
    // Closed-loop replica queries: three filtered SUMs, one GROUPBY and
    // one TOPK per cycle of five, so the median lands inside the SUM
    // mode of the latency distribution.
    for (size_t q = 0; q < spec.replica_queries; ++q) {
      switch (q % 5) {
        case 2:
          plan.timed_ops.push_back(GroupByOp(preload_rows));
          break;
        case 4:
          plan.timed_ops.push_back(TopKOp());
          break;
        default:
          plan.timed_ops.push_back(
              SumOp(static_cast<int>(q % std::min(n_pred, 64))));
      }
    }
  } else {
    for (size_t b = spec.preload_batches;
         b < spec.preload_batches + spec.timed_batches; ++b) {
      plan.timed_ops.push_back(IngestOp(b, spec.batch_rows));
    }
  }
  plan.final_rows = static_cast<int64_t>(plan.rows.size());
  plan.accuracy_truth = ExactSums(plan, 0, plan.rows.size());
  for (int p = 0; p < n_pred; ++p) plan.accuracy_ops.push_back(SumOp(p));
  return plan;
}

}  // namespace perfbench
