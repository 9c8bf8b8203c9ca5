// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Shard-per-core scatter-gather sweep: ShardedIndexSet latency against
// the monolithic PlanarIndexSet baseline across shard count x fan-out
// worker count, for the two serving paths (inequality, top-k). Every
// configuration is first cross-checked against the monolithic answers:
// the same id set, ids exactly in part order (the concatenation of every
// shard's own answer, rebased by its offset), and bit-equal top-k
// neighbors — a mismatch is a hard failure, which makes --smoke the CI
// gate for the scatter-gather merge.
//
// Each repetition times the monolithic and the sharded sweep back to back
// (TimePaired); a row's speedup_vs_mono is the median over repetitions of
// that repetition's monolithic / sharded ratio, so both sides of every
// ratio come from the same host state.
//
// The JSON lines carry effective_threads = min(shards, workers): the
// parallelism the configuration can actually express. On a 1-core host
// the scaling curve is honest but flat — effective_threads > 1 next to
// host_threads = 1 says exactly that.
//
//   --n        dataset size            (default 60000)
//   --queries  queries per mode        (default 48)
//   --runs     timed repetitions: best-of time, median ratio (default 5)
//   --full     paper-scale dataset     (n = 500000)
//   --smoke    tiny sizes, single run — CI answer gate (id set, part
//              order, top-k)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "core/sharded.h"
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

/// Cross-checks one sharded set against the monolithic reference on both
/// paths. Returns false (after printing the first divergence) on
/// any mismatch — the answers must be bitwise equal, not just close.
bool AnswersMatch(const PlanarIndexSet& mono, const ShardedIndexSet& sharded,
                  const std::vector<ScalarProductQuery>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const InequalityResult mono_ineq = mono.Inequality(queries[i]);
    auto shard_ineq = sharded.Inequality(queries[i]);
    PLANAR_CHECK(shard_ineq.ok());
    if (Sorted(shard_ineq.value().ids) != Sorted(mono_ineq.ids)) {
      std::fprintf(stderr,
                   "FAIL: inequality id set mismatch at query %zu "
                   "(shards=%zu)\n",
                   i, sharded.num_shards());
      return false;
    }
    if (shard_ineq.value().ids != ShardOrderIds(sharded, queries[i])) {
      std::fprintf(stderr,
                   "FAIL: inequality ids out of part order at query %zu "
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

/// One serving path's paired timings over all repetitions.
struct ModeTimes {
  double sharded_ms = 0.0;     // best sharded sweep (min over runs)
  std::vector<double> ratios;  // per run: mono sweep / sharded sweep

  double speedup() const { return Percentile(ratios, 50.0); }
};

struct PairTimes {
  ModeTimes inequality;
  ModeTimes topk;
};

/// Times the baseline and one sharded configuration interleaved: every
/// repetition runs the mono sweep and then the sharded sweep of a mode,
/// and keeps their ratio, so clock drift and background noise hit both
/// sides of each ratio equally. The sharded time is best-of (min is the
/// noise-robust estimator for comparing configurations); the speedup is
/// the median of the per-repetition ratios, never a ratio of two minima
/// that may come from different repetitions.
PairTimes TimePaired(const PlanarIndexSet& mono, const ShardedIndexSet& set,
                     const std::vector<ScalarProductQuery>& queries,
                     int runs) {
  const auto sweep = [&](auto&& serve) {
    WallTimer timer;
    for (const ScalarProductQuery& q : queries) serve(q);
    return timer.ElapsedMillis();
  };
  const auto pair = [](ModeTimes* t, double mono_ms, double sharded_ms) {
    if (t->ratios.empty() || sharded_ms < t->sharded_ms) {
      t->sharded_ms = sharded_ms;
    }
    t->ratios.push_back(sharded_ms > 0.0 ? mono_ms / sharded_ms : 0.0);
  };
  PairTimes t;
  for (int i = 0; i < runs; ++i) {
    const double mono_ineq =
        sweep([&](const ScalarProductQuery& q) { (void)mono.Inequality(q); });
    pair(&t.inequality, mono_ineq,
         sweep([&](const ScalarProductQuery& q) { (void)set.Inequality(q); }));
    const double mono_topk =
        sweep([&](const ScalarProductQuery& q) { (void)mono.TopK(q, kTopK); });
    pair(&t.topk, mono_topk,
         sweep([&](const ScalarProductQuery& q) { (void)set.TopK(q, kTopK); }));
  }
  return t;
}

void PrintJson(const char* mode, size_t n, size_t queries, size_t shards,
               size_t workers, const ModeTimes& t, size_t effective_threads) {
  const double ms = t.sharded_ms;
  const double qps =
      ms > 0.0 ? static_cast<double>(queries) / (ms / 1000.0) : 0.0;
  const double speedup = t.speedup();
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
      "checked against the monolithic answers and the part order");

  const PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, 17);
  const std::vector<ParameterDomain> domains = {
      {1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
  auto mono = PlanarIndexSet::Build(PhiMatrix(phi), domains);
  PLANAR_CHECK(mono.ok());
  const std::vector<ScalarProductQuery> queries = MakeQueries(num_queries, 23);

  TablePrinter table({"shards", "workers", "ineq speedup", "topk speedup"});
  bool all_match = true;
  for (const size_t shards : shard_counts) {
    for (const size_t workers : worker_counts) {
      ShardedIndexSetOptions options;
      options.shards = shards;
      options.min_rows_per_shard = 1;
      options.query_threads = workers;
      auto sharded = ShardedIndexSet::Build(PhiMatrix(phi), domains, options);
      PLANAR_CHECK(sharded.ok());
      if (!AnswersMatch(mono.value(), sharded.value(), queries)) {
        all_match = false;
        continue;
      }
      const PairTimes t = TimePaired(mono.value(), sharded.value(), queries,
                                     runs);
      const size_t effective = std::min(shards, workers);
      PrintJson("inequality", n, num_queries, shards, workers, t.inequality,
                effective);
      PrintJson("topk", n, num_queries, shards, workers, t.topk, effective);
      table.AddRow({std::to_string(shards), std::to_string(workers),
                    FormatDouble(t.inequality.speedup(), 2),
                    FormatDouble(t.topk.speedup(), 2)});
    }
  }

  std::printf("\n");
  table.Print();
  if (!all_match) {
    std::fprintf(stderr, "answer check FAILED\n");
    return 1;
  }
  std::printf("answers: OK — id set, part order and top-k (%zu queries x "
              "%zu configs)\n",
              num_queries, shard_counts.size() * worker_counts.size());
  return 0;
}
