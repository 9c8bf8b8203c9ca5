// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// google-benchmark microbenchmarks of the core kernels: index build,
// interval computation, inequality / top-k queries, best-index selection,
// the sequential-scan baseline, and point updates.

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/synthetic_harness.h"
#include "common/random.h"
#include "core/planar_index.h"
#include "core/scan.h"

namespace planar {
namespace {

PhiMatrix MakePhi(size_t n, size_t dim) {
  const Dataset data = bench::MakeSynthetic(
      SyntheticDistribution::kIndependent, n, dim);
  return MaterializePhi(data, IdentityFunction(dim));
}

void BM_IndexBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PhiMatrix phi = MakePhi(n, 6);
  const std::vector<double> normal(6, 1.0);
  for (auto _ : state) {
    auto index = PlanarIndex::BuildFirstOctant(&phi, normal);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexBuild)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_InequalityParallel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PhiMatrix phi = MakePhi(n, 6);
  auto index =
      PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 3.0, 1.0, 2.0, 3.0});
  const ScalarProductQuery q{{1.0, 2.0, 3.0, 1.0, 2.0, 3.0}, 100.0 * 3.0,
                             Comparison::kLessEqual};
  for (auto _ : state) {
    auto result = index->Inequality(q);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InequalityParallel)->Arg(100000)->Arg(1000000);

void BM_InequalitySkewed(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PhiMatrix phi = MakePhi(n, 6);
  auto index = PlanarIndex::BuildFirstOctant(&phi,
                                             std::vector<double>(6, 1.0));
  const ScalarProductQuery q{{3.0, 1.0, 2.0, 1.0, 1.0, 2.0}, 100.0 * 2.5,
                             Comparison::kLessEqual};
  for (auto _ : state) {
    auto result = index->Inequality(q);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InequalitySkewed)->Arg(100000)->Arg(1000000);

void BM_SequentialScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PhiMatrix phi = MakePhi(n, 6);
  const ScalarProductQuery q{{3.0, 1.0, 2.0, 1.0, 1.0, 2.0}, 100.0 * 2.5,
                             Comparison::kLessEqual};
  for (auto _ : state) {
    auto result = ScanInequality(phi, q);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SequentialScan)->Arg(100000)->Arg(1000000);

// High-selectivity scan: nearly every row matches, so the result vector
// reaches ~n entries. ScanInequality reserves n up front (like the index
// II paths); without that reserve this case pays log2(n) geometric
// regrowths, each copying the accumulated ids — measurably slower than
// the residual kernels at 1M rows. (ScanTopK needs no such fix: its
// TopKBuffer reserves k at construction.)
void BM_SequentialScanDense(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PhiMatrix phi = MakePhi(n, 6);
  const ScalarProductQuery q{{1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 1e9,
                             Comparison::kLessEqual};
  for (auto _ : state) {
    auto result = ScanInequality(phi, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SequentialScanDense)->Arg(100000)->Arg(1000000);

void BM_TopK(benchmark::State& state) {
  const PhiMatrix phi = MakePhi(200000, 6);
  auto index = PlanarIndex::BuildFirstOctant(&phi,
                                             std::vector<double>(6, 1.0));
  const ScalarProductQuery q{{1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, 150.0,
                             Comparison::kLessEqual};
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = index->TopK(q, k);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(100)->Arg(10000);

void BM_SelectBestIndex(benchmark::State& state) {
  const Dataset data = bench::MakeSynthetic(
      SyntheticDistribution::kIndependent, 10000, 6);
  PlanarIndexSet set = bench::BuildEq18Set(
      data, /*rq=*/8, static_cast<size_t>(state.range(0)));
  Eq18Workload workload(set.phi(), 8, 0.25, 61);
  const NormalizedQuery q = NormalizedQuery::From(workload.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.SelectBestIndex(q));
  }
}
BENCHMARK(BM_SelectBestIndex)->Arg(10)->Arg(100)->Arg(200);

// The same selection over 64 rotating Eq.-18 queries: one repeated query
// trains the branch predictors and keeps every probed key line in L1,
// which hides the probe cost a served request pays.
void BM_SelectBestIndexRotating(benchmark::State& state) {
  const Dataset data = bench::MakeSynthetic(
      SyntheticDistribution::kIndependent, 10000, 6);
  PlanarIndexSet set = bench::BuildEq18Set(
      data, /*rq=*/8, static_cast<size_t>(state.range(0)));
  Eq18Workload workload(set.phi(), 8, 0.25, 61);
  std::vector<NormalizedQuery> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(NormalizedQuery::From(workload.Next()));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.SelectBestIndex(queries[next]));
    next = (next + 1) % queries.size();
  }
}
BENCHMARK(BM_SelectBestIndexRotating)->Arg(10)->Arg(100)->Arg(200);

// The SI/LI boundary searches that precede every query: a rank lookup in
// a sorted key array (the flat search the learned CDF falls back to).
// Random probes defeat the branch predictor.
std::vector<double> SortedKeys(size_t n) {
  Rng rng(9);
  std::vector<double> keys(n);
  for (double& k : keys) k = rng.Uniform(0.0, 1e6);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void BM_BoundarySearchStd(benchmark::State& state) {
  const std::vector<double> keys =
      SortedKeys(static_cast<size_t>(state.range(0)));
  Rng rng(10);
  for (auto _ : state) {
    const double probe = rng.Uniform(0.0, 1e6);
    benchmark::DoNotOptimize(
        std::upper_bound(keys.begin(), keys.end(), probe) - keys.begin());
  }
}
BENCHMARK(BM_BoundarySearchStd)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_PointUpdateArray(benchmark::State& state) {
  PhiMatrix phi = MakePhi(static_cast<size_t>(state.range(0)), 6);
  auto index = PlanarIndex::BuildFirstOctant(&phi,
                                             std::vector<double>(6, 1.0));
  Rng rng(7);
  std::vector<double> row(6);
  for (auto _ : state) {
    const uint32_t target =
        static_cast<uint32_t>(rng.UniformInt(phi.size()));
    for (double& v : row) v = rng.Uniform(1.0, 100.0);
    phi.SetRow(target, row.data());
    benchmark::DoNotOptimize(index->Update(target));
  }
}
BENCHMARK(BM_PointUpdateArray)->Arg(100000)->Arg(1000000);

}  // namespace
}  // namespace planar

BENCHMARK_MAIN();
