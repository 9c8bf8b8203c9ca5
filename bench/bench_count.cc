// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Approximate aggregate fast path sweep (DESIGN.md section 5k): COUNT
// latency across tolerance x n against two baselines — the full
// materializing Inequality-and-count, and the pure boundary-search
// bounds. Every tolerance-0 count is first cross-checked bit-equal to
// the scan baseline (a mismatch is a hard failure), which makes --smoke
// the CI gate for the count path.
//
//   --n        dataset size            (default 100000)
//   --queries  queries per mode        (default 64)
//   --runs     timed repetitions, best-of (default 5)
//   --full     paper-scale dataset     (n = 1000000)
//   --smoke    tiny sizes, single run — CI bit-exactness gate

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/index_set.h"
#include "core/planar_index.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace planar {
namespace {

std::vector<ScalarProductQuery> MakeQueries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScalarProductQuery> queries(count);
  for (size_t i = 0; i < count; ++i) {
    // b >= 0 keeps every query index-served: normalization negates a
    // negative-b query into the mirrored octant, which falls back to
    // the O(n) scan on both sides and would measure the scan, not the
    // count path this bench exists to characterize.
    queries[i].a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    queries[i].b = rng.Uniform(0, 300);
    queries[i].cmp =
        i % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
  }
  return queries;
}

/// Best-of-`runs` wall milliseconds of `fn` (min: the sweep compares
/// configurations, and min is the noise-robust estimator).
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

void PrintJson(const char* mode, size_t n, size_t queries, double tolerance,
               double ms, double baseline_ms, double refined_fraction) {
  const double ns_per_query =
      queries > 0 ? ms * 1e6 / static_cast<double>(queries) : 0.0;
  const double speedup = ms > 0.0 ? baseline_ms / ms : 0.0;
  std::printf(
      "{\"bench\":\"count\",\"mode\":\"%s\",\"n\":%zu,\"queries\":%zu,"
      "\"tolerance\":%.0f,\"mean_ms\":%.4f,\"ns_per_query\":%.1f,"
      "\"speedup_vs_inequality\":%.2f,\"refined_fraction\":%.3f%s}\n",
      mode, n, queries, tolerance, ms, ns_per_query, speedup,
      refined_fraction, bench::JsonStamp(1).c_str());
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 4000 : bench::ScaledN(flags, 100000, 1000000);
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", smoke ? 16 : 64));
  const int runs = smoke ? 1 : bench::Runs(flags, 5);

  bench::PrintHeader(
      "approximate count fast path",
      "COUNT bounds/refinement latency across tolerance, vs the "
      "materializing Inequality baseline; tolerance-0 bit-exactness "
      "checked");

  const PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, 17);
  const std::vector<ParameterDomain> domains = {
      {1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
  auto set = PlanarIndexSet::Build(PhiMatrix(phi), domains);
  PLANAR_CHECK(set.ok());
  const std::vector<ScalarProductQuery> queries = MakeQueries(num_queries, 23);

  // Bit-exactness gate: tolerance-0 counts equal the scan baseline.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto count = set->CountInequality(queries[i]);
    PLANAR_CHECK(count.ok());
    const size_t truth = ScanInequality(phi, queries[i]).ids.size();
    if (!count->exact || count->estimate != truth) {
      std::fprintf(stderr, "FAIL: count mismatch at query %zu (%zu != %zu)\n",
                   i, count->estimate, truth);
      return 1;
    }
  }

  // Baseline: the materializing path a caller without CountInequality
  // pays — answer the inequality, count the ids.
  const double inequality_ms = BestMillis(
      [&] {
        size_t sink = 0;
        for (const ScalarProductQuery& q : queries) {
          sink += set->Inequality(q).ids.size();
        }
        PLANAR_CHECK(sink != static_cast<size_t>(-1));
      },
      runs);
  PrintJson("inequality_baseline", n, num_queries, 0.0, inequality_ms,
            inequality_ms, 0.0);

  // Tolerance sweep: absolute tolerances from exact to bounds-only.
  TablePrinter table(
      {"tolerance", "ms/sweep", "ns/query", "vs inequality", "refined"});
  const std::vector<double> tolerances = {
      0.0, 16.0, 256.0, 4096.0, static_cast<double>(n)};
  for (const double tol : tolerances) {
    CountTolerance tolerance;
    tolerance.absolute = tol;
    size_t refined = 0;
    for (const ScalarProductQuery& q : queries) {
      auto count = set->CountInequality(q, tolerance);
      PLANAR_CHECK(count.ok());
      if (count->refined) ++refined;
    }
    const double ms = BestMillis(
        [&] {
          for (const ScalarProductQuery& q : queries) {
            auto count = set->CountInequality(q, tolerance);
            PLANAR_CHECK(count.ok());
          }
        },
        runs);
    const double refined_fraction =
        static_cast<double>(refined) / static_cast<double>(num_queries);
    const char* mode = tol == 0.0            ? "exact"
                       : tol >= static_cast<double>(n) ? "bounds_only"
                                                       : "sweep";
    PrintJson(mode, n, num_queries, tol, ms, inequality_ms, refined_fraction);
    table.AddRow({FormatDouble(tol, 0), FormatDouble(ms, 3),
                  FormatDouble(ms * 1e6 / static_cast<double>(num_queries), 0),
                  FormatDouble(inequality_ms / ms, 1),
                  FormatDouble(refined_fraction, 2)});
  }

  std::printf("\n");
  table.Print();
  std::printf("bit-exactness: OK (%zu tolerance-0 counts vs scan)\n",
              queries.size());
  return 0;
}
