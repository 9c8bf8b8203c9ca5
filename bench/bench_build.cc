// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Build-pipeline benchmark (the committed baseline lives in
// BENCH_build.json at the repo root): PlanarIndexSet::BuildWithNormals
// rows/s — r fixed normals over n rows — swept over set-level
// build_threads, against the serial (threads = 1) baseline. Fixed normals
// keep every configuration building the exact same indices, so the sweep
// measures the pipeline, not the workload. speedup > 1 needs real cores:
// the JSON carries host_threads so a single-core runner's ~1.0x reads as
// what it is.
//
//   --n      rows per index           (default 262144; --full 1048576)
//   --runs   measured repetitions     (default 5, best-of)
//   --smoke  tiny sizes, single run — CI correctness-of-plumbing mode

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/index_set.h"
#include "tests/test_util.h"

namespace planar {
namespace {

volatile double g_sink = 0.0;

// r strictly-positive normals for the first octant, deterministic.
std::vector<std::vector<double>> MakeNormals(size_t r, size_t dim) {
  Rng rng(47);
  std::vector<std::vector<double>> normals(r, std::vector<double>(dim));
  for (auto& normal : normals) {
    for (double& c : normal) c = rng.Uniform(0.5, 4.0);
  }
  return normals;
}

double BuildMillis(const PhiMatrix& phi,
                   const std::vector<std::vector<double>>& normals,
                   size_t threads, int runs) {
  const Octant octant =
      Octant::FromNormal(std::vector<double>(phi.dim(), 1.0));
  IndexSetOptions options;
  options.build_threads = threads;
  // Hand-rolled best-of loop: each run consumes a fresh matrix copy, and
  // the copy must stay outside the timed region.
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    PhiMatrix copy = phi;
    WallTimer timer;
    auto set = PlanarIndexSet::BuildWithNormals(std::move(copy), normals,
                                                octant, options);
    const double ms = timer.ElapsedMillis();
    PLANAR_CHECK(set.ok());
    g_sink = static_cast<double>(set->num_indices());
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 20000 : bench::ScaledN(flags, 262144, 1048576);
  const int runs = smoke ? 1 : bench::Runs(flags, 5);
  const unsigned host_threads =
      std::max(1u, std::thread::hardware_concurrency());

  bench::PrintHeader(
      "index-set build pipeline",
      "build rows/s vs serial across r and threads; host_threads=" +
          std::to_string(host_threads));

  const size_t dim = 4;
  const size_t r_values[] = {4, 8};
  const size_t thread_values[] = {1, 2, 4, 8};

  TablePrinter build_table(
      {"r", "n", "threads", "Mrows/s", "speedup vs serial"});
  const PhiMatrix phi = RandomPhi(n, dim, 1.0, 100.0, 53);
  for (const size_t r : r_values) {
    const auto normals = MakeNormals(smoke ? std::min<size_t>(r, 4) : r, dim);
    double serial_ms = 0.0;
    for (const size_t threads : thread_values) {
      if (smoke && threads > 2) continue;
      const double ms = BuildMillis(phi, normals, threads, runs);
      if (threads == 1) serial_ms = ms;
      // Rows processed: every index computes+sorts all n keys.
      const double rows =
          static_cast<double>(normals.size()) * static_cast<double>(n);
      const double rows_per_sec = rows / (ms / 1000.0);
      const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
      build_table.AddRow({std::to_string(normals.size()), std::to_string(n),
                          std::to_string(threads),
                          FormatDouble(rows_per_sec / 1e6, 1),
                          FormatDouble(speedup, 2)});
      std::printf(
          "{\"bench\":\"build\",\"r\":%zu,\"n\":%zu,\"threads\":%zu,"
          "\"rows_per_sec\":%.0f,\"speedup_vs_serial\":%.2f%s}\n",
          normals.size(), n, threads, rows_per_sec, speedup,
          bench::JsonStamp(threads).c_str());
    }
  }

  std::printf("\n");
  build_table.Print();
  return 0;
}
