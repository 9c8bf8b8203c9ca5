// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Shard-per-core scatter-gather sweep: ShardedIndexSet latency against
// the monolithic PlanarIndexSet baseline across shard count x fan-out
// worker count, for the three serving paths (inequality, top-k, batched
// inequality). Every configuration is first cross-checked bit-identical
// to the monolithic answers (sorted id lists; memcmp'd top-k neighbors)
// — a mismatch is a hard failure, which makes --smoke the CI gate for
// the scatter-gather merge.
//
// The JSON lines carry effective_threads = min(shards, workers): the
// parallelism the configuration can actually express. On a 1-core host
// the scaling curve is honest but flat — effective_threads > 1 next to
// host_threads = 1 says exactly that.
//
//   --n        dataset size            (default 60000)
//   --queries  queries per mode        (default 48)
//   --runs     timed repetitions, best-of (default 5)
//   --full     paper-scale dataset     (n = 500000)
//   --smoke    tiny sizes, single run — CI bit-identity gate

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/sharded.h"
#include "core/sort_util.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr size_t kTopK = 16;

std::vector<ScalarProductQuery> MakeQueries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScalarProductQuery> queries(count);
  for (size_t i = 0; i < count; ++i) {
    queries[i].a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    queries[i].b = rng.Uniform(-100, 300);
    queries[i].cmp =
        i % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
  }
  return queries;
}

/// Best-of-`runs` wall milliseconds of `fn` (min, not mean: the sweep
/// compares configurations, and min is the noise-robust estimator).
template <typename Fn>
double BestMillis(Fn&& fn, int runs) {
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

/// Cross-checks one sharded set against the monolithic reference on all
/// three paths. Returns false (after printing the first divergence) on
/// any mismatch — the answers must be bitwise equal, not just close.
bool BitIdentical(const PlanarIndexSet& mono, const ShardedIndexSet& sharded,
                  const std::vector<ScalarProductQuery>& queries) {
  const auto batch = sharded.BatchInequality(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    const InequalityResult mono_ineq = mono.Inequality(queries[i]);
    auto shard_ineq = sharded.Inequality(queries[i]);
    PLANAR_CHECK(shard_ineq.ok());
    PLANAR_CHECK(batch[i].ok());
    const std::vector<uint32_t> want = Sorted(mono_ineq.ids);
    if (shard_ineq.value().ids != want || batch[i].value().ids != want) {
      std::fprintf(stderr,
                   "FAIL: inequality id mismatch at query %zu "
                   "(shards=%zu)\n",
                   i, sharded.num_shards());
      return false;
    }
    auto mono_topk = mono.TopK(queries[i], kTopK);
    auto shard_topk = sharded.TopK(queries[i], kTopK);
    PLANAR_CHECK(mono_topk.ok());
    PLANAR_CHECK(shard_topk.ok());
    const std::vector<Neighbor>& want_nn = mono_topk.value().neighbors;
    const std::vector<Neighbor>& got_nn = shard_topk.value().neighbors;
    // Element-wise, not memcmp: Neighbor has padding bytes after `id`.
    const bool topk_equal =
        got_nn.size() == want_nn.size() &&
        std::equal(got_nn.begin(), got_nn.end(), want_nn.begin(),
                   [](const Neighbor& a, const Neighbor& b) {
                     return a.id == b.id && a.distance == b.distance;
                   });
    if (!topk_equal) {
      std::fprintf(stderr,
                   "FAIL: top-k mismatch at query %zu (shards=%zu)\n", i,
                   sharded.num_shards());
      return false;
    }
  }
  return true;
}

struct ModeTimes {
  double inequality_ms = 0.0;  // whole query sweep, one pass
  double topk_ms = 0.0;
  double batch_ms = 0.0;
};

/// The monolithic baseline delivers the same answer the sharded set
/// contracts to: the canonical ascending-id order. Monolithic ids come
/// back in index-rank order, so the baseline pays the same linear
/// SortIds a client needing deterministic ids pays — without it the
/// comparison would charge canonicalization to the sharded side only,
/// and with a comparison sort it would charge the baseline for a
/// slower algorithm rather than for the lack of sharding.
void Canonicalize(const PlanarIndexSet& set, InequalityResult* result) {
  SortIds(&result->ids, static_cast<uint32_t>(set.size()));
}

ModeTimes TimeMonolithic(const PlanarIndexSet& set,
                         const std::vector<ScalarProductQuery>& queries,
                         int runs) {
  ModeTimes t;
  t.inequality_ms = BestMillis(
      [&] {
        for (const ScalarProductQuery& q : queries) {
          InequalityResult r = set.Inequality(q);
          Canonicalize(set, &r);
        }
      },
      runs);
  t.topk_ms = BestMillis(
      [&] {
        for (const ScalarProductQuery& q : queries) (void)set.TopK(q, kTopK);
      },
      runs);
  t.batch_ms = BestMillis(
      [&] {
        auto results = set.BatchInequality(queries);
        for (auto& r : results) Canonicalize(set, &r.value());
      },
      runs);
  return t;
}

struct PairTimes {
  ModeTimes mono;
  ModeTimes sharded;
};

/// Times the baseline and one sharded configuration interleaved —
/// alternating mono/sharded sweeps within every repetition — so clock
/// drift and background noise hit both sides of each ratio equally.
/// Best-of per side, like BestMillis.
PairTimes TimePaired(const PlanarIndexSet& mono, const ShardedIndexSet& set,
                     const std::vector<ScalarProductQuery>& queries,
                     int runs) {
  const auto once = [](auto&& fn) {
    WallTimer timer;
    fn();
    return timer.ElapsedMillis();
  };
  const auto keep_min = [](double* slot, double ms) {
    if (*slot == 0.0 || ms < *slot) *slot = ms;
  };
  PairTimes t;
  for (int i = 0; i < runs; ++i) {
    keep_min(&t.mono.inequality_ms, once([&] {
               for (const ScalarProductQuery& q : queries) {
                 InequalityResult r = mono.Inequality(q);
                 Canonicalize(mono, &r);
               }
             }));
    keep_min(&t.sharded.inequality_ms, once([&] {
               for (const ScalarProductQuery& q : queries) {
                 (void)set.Inequality(q);
               }
             }));
    keep_min(&t.mono.topk_ms, once([&] {
               for (const ScalarProductQuery& q : queries) {
                 (void)mono.TopK(q, kTopK);
               }
             }));
    keep_min(&t.sharded.topk_ms, once([&] {
               for (const ScalarProductQuery& q : queries) {
                 (void)set.TopK(q, kTopK);
               }
             }));
    keep_min(&t.mono.batch_ms, once([&] {
               auto results = mono.BatchInequality(queries);
               for (auto& r : results) Canonicalize(mono, &r.value());
             }));
    keep_min(&t.sharded.batch_ms,
             once([&] { (void)set.BatchInequality(queries); }));
  }
  return t;
}

void PrintJson(const char* mode, size_t n, size_t queries, size_t shards,
               size_t workers, double ms, double mono_ms,
               size_t effective_threads) {
  const double qps =
      ms > 0.0 ? static_cast<double>(queries) / (ms / 1000.0) : 0.0;
  const double speedup = ms > 0.0 ? mono_ms / ms : 0.0;
  std::printf(
      "{\"bench\":\"shard\",\"mode\":\"%s\",\"n\":%zu,\"queries\":%zu,"
      "\"shards\":%zu,\"workers\":%zu,\"mean_ms\":%.4f,\"qps\":%.1f,"
      "\"speedup_vs_mono\":%.3f%s}\n",
      mode, n, queries, shards, workers, ms, qps, speedup,
      bench::JsonStamp(effective_threads).c_str());
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 4000 : bench::ScaledN(flags, 60000, 500000);
  const size_t num_queries = static_cast<size_t>(
      flags.GetInt("queries", smoke ? 12 : 48));
  const int runs = smoke ? 1 : bench::Runs(flags, 5);
  const std::vector<size_t> shard_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  const std::vector<size_t> worker_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4};

  bench::PrintHeader(
      "shard scatter-gather",
      "sharded vs monolithic latency over shards x workers; every config "
      "bit-identity-checked against the monolithic answers");

  const PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, 17);
  const std::vector<ParameterDomain> domains = {
      {1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
  auto mono = PlanarIndexSet::Build(PhiMatrix(phi), domains);
  PLANAR_CHECK(mono.ok());
  const std::vector<ScalarProductQuery> queries = MakeQueries(num_queries, 23);

  const ModeTimes mono_t = TimeMonolithic(mono.value(), queries, runs);
  PrintJson("inequality", n, num_queries, 0, 1, mono_t.inequality_ms,
            mono_t.inequality_ms, 1);
  PrintJson("topk", n, num_queries, 0, 1, mono_t.topk_ms, mono_t.topk_ms, 1);
  PrintJson("batch", n, num_queries, 0, 1, mono_t.batch_ms, mono_t.batch_ms,
            1);

  TablePrinter table({"shards", "workers", "ineq speedup", "topk speedup",
                      "batch speedup"});
  bool all_identical = true;
  for (const size_t shards : shard_counts) {
    for (const size_t workers : worker_counts) {
      ShardedIndexSetOptions options;
      options.shards = shards;
      options.min_rows_per_shard = 1;
      options.query_threads = workers;
      auto sharded = ShardedIndexSet::Build(PhiMatrix(phi), domains, options);
      PLANAR_CHECK(sharded.ok());
      if (!BitIdentical(mono.value(), sharded.value(), queries)) {
        all_identical = false;
        continue;
      }
      const PairTimes t = TimePaired(mono.value(), sharded.value(), queries,
                                     runs);
      const size_t effective = std::min(shards, workers);
      PrintJson("inequality", n, num_queries, shards, workers,
                t.sharded.inequality_ms, t.mono.inequality_ms, effective);
      PrintJson("topk", n, num_queries, shards, workers, t.sharded.topk_ms,
                t.mono.topk_ms, effective);
      PrintJson("batch", n, num_queries, shards, workers, t.sharded.batch_ms,
                t.mono.batch_ms, effective);
      table.AddRow(
          {std::to_string(shards), std::to_string(workers),
           FormatDouble(t.mono.inequality_ms / t.sharded.inequality_ms, 2),
           FormatDouble(t.mono.topk_ms / t.sharded.topk_ms, 2),
           FormatDouble(t.mono.batch_ms / t.sharded.batch_ms, 2)});
    }
  }

  std::printf("\n");
  table.Print();
  if (!all_identical) {
    std::fprintf(stderr, "bit-identity check FAILED\n");
    return 1;
  }
  std::printf("bit-identity: OK (%zu queries x %zu configs x 3 modes)\n",
              num_queries, shard_counts.size() * worker_counts.size());
  return 0;
}
