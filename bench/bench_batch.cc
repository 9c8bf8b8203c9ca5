// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Cross-query batched execution bench: queries/second (and verified
// rows/second) of PlanarIndexSet::BatchInequality against the serial
// per-query path, swept over batch size. Two workloads:
//
//   overlap   perturbations of one base direction with nearby cuts — the
//             intermediate intervals coalesce into a few merged ranges,
//             so the batch path streams shared phi rows once and feeds
//             them to the multi-query micro-GEMM kernel
//   spread    independent directions and cuts across the whole range —
//             little interval overlap, the honest control; batch sizes
//             must at least not regress here
//
// Prints a table plus one JSON line per configuration (the committed
// baseline lives in BENCH_batch.json at the repo root). The serial
// baseline and every batched answer are cross-checked for bit identity
// before timing is reported.
//
//   --n      rows                      (default 200000; --full 1000000)
//   --runs   measured repetitions      (default 5, best-of)
//   --smoke  tiny sizes, single run — CI correctness-of-plumbing mode

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/batch.h"
#include "core/index_set.h"
#include "tests/test_util.h"

namespace planar {
namespace {

template <typename Fn>
double MinMillis(Fn&& fn, int runs) {
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

constexpr size_t kDim = 8;

PlanarIndexSet BuildSet(size_t n) {
  PhiMatrix phi = RandomPhi(n, kDim, 1.0, 100.0, 31);
  IndexSetOptions options;
  options.budget = 6;
  // Measure the index path at any interval size: the fallback would
  // reroute wide-interval queries to a scan and muddy the comparison
  // (both paths batch scans the same way anyway).
  options.scan_fallback_fraction = 1.0;
  auto set = PlanarIndexSet::Build(
      std::move(phi), std::vector<ParameterDomain>(kDim, {1.0, 4.0}),
      options);
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

// `overlap`: one base direction, jittered, cuts in a narrow band around a
// mid-range selectivity — every query's II lands on nearly the same rank
// range. Otherwise independent directions and cuts over the whole range.
std::vector<ScalarProductQuery> MakeWorkload(bool overlap, size_t count,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<ScalarProductQuery> queries(count);
  // E[<a, phi(x)>] with a ~ U[1,4]^d, phi ~ U[1,100]^d is 2.5*50.5*d.
  const double mid = 2.5 * 50.5 * static_cast<double>(kDim);
  for (ScalarProductQuery& q : queries) {
    q.a.resize(kDim);
    if (overlap) {
      for (size_t j = 0; j < kDim; ++j) {
        q.a[j] = 2.5 + rng.Uniform(-0.05, 0.05);
      }
      q.b = mid * rng.Uniform(0.97, 1.03);
    } else {
      for (size_t j = 0; j < kDim; ++j) q.a[j] = rng.Uniform(1.0, 4.0);
      q.b = mid * rng.Uniform(0.4, 1.6);
    }
    q.cmp = Comparison::kLessEqual;
  }
  return queries;
}

// One BatchInequality pass over `queries` in chunks of `batch_size`;
// accumulates sharing stats across chunks.
void RunBatched(const PlanarIndexSet& set,
                const std::vector<ScalarProductQuery>& queries,
                size_t batch_size,
                std::vector<Result<InequalityResult>>* out,
                BatchExecStats* total) {
  out->clear();
  *total = BatchExecStats();
  for (size_t i = 0; i < queries.size(); i += batch_size) {
    const size_t m = std::min(batch_size, queries.size() - i);
    BatchExecStats stats;
    auto results = set.BatchInequality(
        std::span<const ScalarProductQuery>(queries.data() + i, m), {},
        &stats);
    for (auto& r : results) out->push_back(std::move(r));
    total->queries += stats.queries;
    total->index_groups += stats.index_groups;
    total->scan_queries += stats.scan_queries;
    total->merged_ranges += stats.merged_ranges;
    total->rows_streamed += stats.rows_streamed;
    total->rows_demanded += stats.rows_demanded;
  }
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 4000 : bench::ScaledN(flags, 200000, 1000000);
  const int runs = smoke ? 1 : bench::Runs(flags, 5);
  const size_t num_queries = smoke ? 16 : 64;

  bench::PrintHeader(
      "bench_batch",
      "BatchInequality vs serial Inequality, n=" + std::to_string(n) +
          " d'=" + std::to_string(kDim) + " queries=" +
          std::to_string(num_queries) + " (bit-identity cross-checked)");

  const PlanarIndexSet set = BuildSet(n);
  const std::vector<size_t> batch_sizes =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 16, 64};

  TablePrinter table({"workload", "batch", "serial q/s", "batch q/s",
                      "speedup", "sharing", "rows/s"});
  bool ok = true;
  for (const bool overlap : {true, false}) {
    const char* workload = overlap ? "overlap" : "spread";
    const std::vector<ScalarProductQuery> queries =
        MakeWorkload(overlap, num_queries, overlap ? 77 : 78);

    // Serial reference: answers + best-of-runs time.
    std::vector<Result<InequalityResult>> serial;
    const double serial_ms = MinMillis(
        [&] {
          serial.clear();
          for (const ScalarProductQuery& q : queries) {
            serial.push_back(set.Inequality(q, Deadline::Infinite()));
          }
        },
        runs);
    const double serial_qps =
        static_cast<double>(queries.size()) / (serial_ms / 1000.0);

    for (const size_t batch_size : batch_sizes) {
      std::vector<Result<InequalityResult>> batched;
      BatchExecStats stats;
      const double batch_ms = MinMillis(
          [&] { RunBatched(set, queries, batch_size, &batched, &stats); },
          runs);
      // Bit-identity gate: a fast wrong answer is not a result.
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!batched[i].ok() || !serial[i].ok() ||
            batched[i]->ids != serial[i]->ids) {
          std::fprintf(stderr,
                       "FAIL: batched answer diverges from serial "
                       "(workload=%s batch=%zu query=%zu)\n",
                       workload, batch_size, i);
          ok = false;
        }
      }
      const double batch_qps =
          static_cast<double>(queries.size()) / (batch_ms / 1000.0);
      const double speedup = serial_ms > 0.0 ? serial_ms / batch_ms : 0.0;
      const double rows_per_sec =
          static_cast<double>(stats.rows_demanded) / (batch_ms / 1000.0);
      table.AddRow({workload, std::to_string(batch_size),
                    FormatDouble(serial_qps, 1), FormatDouble(batch_qps, 1),
                    FormatDouble(speedup, 2),
                    FormatDouble(stats.SharingFactor(), 2),
                    FormatDouble(rows_per_sec / 1e6, 1)});
      std::printf(
          "{\"bench\":\"batch\",\"workload\":\"%s\","
          "\"n\":%zu,\"queries\":%zu,\"batch_size\":%zu,"
          "\"serial_qps\":%.1f,\"batch_qps\":%.1f,\"speedup\":%.2f,"
          "\"sharing_factor\":%.2f,\"rows_per_sec\":%.0f%s}\n",
          workload, n, queries.size(), batch_size, serial_qps, batch_qps,
          speedup, stats.SharingFactor(), rows_per_sec,
          bench::JsonStamp(1, set.ResidentBytes()).c_str());
    }
  }
  std::printf("\n");
  table.Print();
  if (!ok) return 1;
  return 0;
}
