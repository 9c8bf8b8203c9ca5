// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Microbenchmark for the vectorized verification kernels (src/core/kernels):
// rows/second of the batched paths against the pre-kernel baselines they
// replaced (per-row planar::Dot plus a branchy accept loop). Three
// workloads, each swept over d' in {2, 4, 8, 16}:
//
//   batch_dot     dot_range residuals           vs per-row Dot
//   batch_verify  dot_gather + CompressAccept   vs per-row Dot + branchy push
//   build_keys    dot_range key construction    vs per-row Dot + shift
//
// Prints a table plus one JSON line per configuration (the committed
// baseline lives in BENCH_kernels.json at the repo root).
//
// The default row count is cache-resident so the comparison is
// compute-bound (the kernels' reason to exist); --full streams from
// DRAM, where both paths converge toward memory bandwidth and the gap
// narrows — both regimes are honest, they answer different questions.
//
//   --n      rows                      (default 16384; --full 1000000)
//   --runs   measured repetitions      (default 25, best-of)
//   --smoke  tiny sizes, single run — CI correctness-of-plumbing mode

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/kernels/kernels.h"
#include "core/row_matrix.h"
#include "geometry/vec.h"
#include "tests/test_util.h"

namespace planar {
namespace {

// Keeps the compiler from discarding the measured loops.
volatile double g_sink = 0.0;

// Best-of-runs wall time: robust against host steal time and frequency
// dips, which matters more than averaging on shared single-core runners.
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

struct Measurement {
  double baseline_rows_per_sec = 0.0;
  double kernel_rows_per_sec = 0.0;
  double speedup() const {
    return baseline_rows_per_sec > 0.0
               ? kernel_rows_per_sec / baseline_rows_per_sec
               : 0.0;
  }
};

double RowsPerSec(size_t rows, double millis) {
  return millis > 0.0 ? static_cast<double>(rows) / (millis / 1000.0) : 0.0;
}

// Residuals for every row, blocked: the scan / II hot loop shape.
Measurement BenchBatchDot(const PhiMatrix& phi, const std::vector<double>& a,
                          double b, int runs) {
  const size_t n = phi.size();
  const size_t dim = phi.dim();
  std::vector<double> residuals(n);
  Measurement m;
  const double base_ms = MinMillis(
      [&] {
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) {
          residuals[i] = Dot(a.data(), phi.row(i), dim) - b;
          acc += residuals[i];
        }
        g_sink = acc;
      },
      runs);
  const kernels::DotOps& ops = kernels::Ops();
  const double kern_ms = MinMillis(
      [&] {
        for (size_t row = 0; row < n; row += kernels::kBlockRows) {
          const size_t blk = std::min(kernels::kBlockRows, n - row);
          ops.dot_range(a.data(), dim, phi.data(), dim, row, blk, -b,
                        residuals.data() + row);
        }
        g_sink = residuals[n - 1];
      },
      runs);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

// The full II verification shape: gather candidate rows by id, compute
// residuals, emit matching ids. Baseline is the pre-kernel per-row loop
// (one Dot, one data-dependent branch, one push_back per row).
Measurement BenchBatchVerify(const PhiMatrix& phi,
                             const std::vector<double>& a, double b,
                             const std::vector<uint32_t>& ids, int runs) {
  const size_t n = ids.size();
  const size_t dim = phi.dim();
  std::vector<uint32_t> accepted;
  Measurement m;
  const double base_ms = MinMillis(
      [&] {
        accepted.clear();
        for (size_t i = 0; i < n; ++i) {
          const double residual = Dot(a.data(), phi.row(ids[i]), dim) - b;
          if (residual <= 0.0) accepted.push_back(ids[i]);
        }
        g_sink = static_cast<double>(accepted.size());
      },
      runs);
  const kernels::DotOps& ops = kernels::Ops();
  double residuals[kernels::kBlockRows];
  const double kern_ms = MinMillis(
      [&] {
        accepted.clear();
        accepted.reserve(n);
        for (size_t off = 0; off < n; off += kernels::kBlockRows) {
          const size_t blk = std::min(kernels::kBlockRows, n - off);
          ops.dot_gather(a.data(), dim, phi.data(), dim, ids.data() + off,
                         blk, -b, residuals);
          const size_t old_size = accepted.size();
          accepted.resize(old_size + blk);
          const size_t kept =
              kernels::CompressAccept(residuals, ids.data() + off, blk, true,
                                      accepted.data() + old_size);
          accepted.resize(old_size + kept);
        }
        g_sink = static_cast<double>(accepted.size());
      },
      runs);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

// Key construction: the Rebuild hot loop (key_i = <c, phi_i> + shift).
Measurement BenchBuildKeys(const PhiMatrix& phi,
                           const std::vector<double>& normal, double shift,
                           int runs) {
  const size_t n = phi.size();
  const size_t dim = phi.dim();
  std::vector<double> keys(n);
  Measurement m;
  const double base_ms = MinMillis(
      [&] {
        for (size_t i = 0; i < n; ++i) {
          keys[i] = Dot(normal.data(), phi.row(i), dim) + shift;
        }
        g_sink = keys[n - 1];
      },
      runs);
  const kernels::DotOps& ops = kernels::Ops();
  const double kern_ms = MinMillis(
      [&] {
        ops.dot_range(normal.data(), dim, phi.data(), dim, 0, n, shift,
                      keys.data());
        g_sink = keys[n - 1];
      },
      runs);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 4096 : bench::ScaledN(flags, 16384, 1000000);
  const int runs = smoke ? 1 : bench::Runs(flags, 25);

  bench::PrintHeader(
      "kernel throughput",
      "rows/s of batched kernels vs per-row baseline; backend=" +
          std::string(kernels::BackendName()));

  const size_t dims[] = {2, 4, 8, 16};
  TablePrinter table({"workload", "d'", "baseline Mrows/s", "kernel Mrows/s",
                      "speedup"});
  for (const size_t dim : dims) {
    PhiMatrix phi = RandomPhi(n, dim, 0.0, 100.0, 97 + dim);
    Rng rng(13 + dim);
    std::vector<double> a(dim);
    for (size_t j = 0; j < dim; ++j) a[j] = rng.Uniform(0.5, 4.0);
    const double b = 100.0 * static_cast<double>(dim);  // ~50% selectivity
    // Candidate ids with gaps, like a real intermediate interval.
    std::vector<uint32_t> ids;
    ids.reserve(n / 2);
    for (size_t i = 0; i < n; i += 2) {
      ids.push_back(static_cast<uint32_t>(i));
    }

    struct Row {
      const char* workload;
      Measurement m;
    };
    const Row rows[] = {
        {"batch_dot", BenchBatchDot(phi, a, b, runs)},
        {"batch_verify", BenchBatchVerify(phi, a, b, ids, runs)},
        {"build_keys", BenchBuildKeys(phi, a, 0.25, runs)},
    };
    for (const Row& row : rows) {
      table.AddRow({row.workload, std::to_string(dim),
                    FormatDouble(row.m.baseline_rows_per_sec / 1e6, 1),
                    FormatDouble(row.m.kernel_rows_per_sec / 1e6, 1),
                    FormatDouble(row.m.speedup(), 2)});
      std::printf(
          "{\"bench\":\"kernels\",\"workload\":\"%s\",\"dim\":%zu,"
          "\"n\":%zu,\"backend\":\"%s\",\"baseline_rows_per_sec\":%.0f,"
          "\"kernel_rows_per_sec\":%.0f,\"speedup\":%.2f%s}\n",
          row.workload, dim, n, kernels::BackendName(),
          row.m.baseline_rows_per_sec, row.m.kernel_rows_per_sec,
          row.m.speedup(), bench::JsonStamp(1).c_str());
    }
  }
  std::printf("\n");
  table.Print();
  return 0;
}
