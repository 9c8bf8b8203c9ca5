// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Build-pipeline benchmark (the committed baseline lives in
// BENCH_build.json at the repo root): PlanarIndexSet::BuildWithNormals
// rows/s — r fixed normals over n rows — swept over set-level
// build_threads, against the serial (threads = 1) baseline. Fixed normals
// keep every configuration building the exact same indices, so the sweep
// measures the pipeline, not the workload. A second table times
// ShardedIndexSet::Build (4 shards, r = 10, the shape of perfbench's
// ingest_sharded archive) at width 1 and at full width: every shard's
// indices build in one fan-out. speedup > 1 needs real cores: the JSON
// carries host_threads and effective_threads so a single-core runner's
// ~1.0x reads as what it is.
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
#include "common/thread_pool.h"
#include "core/index_set.h"
#include "core/sharded.h"
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

// Threads a build of `tasks` indices at `width` (0 = all cores) really
// runs on: ParallelFor caps the width at the task count and at the pool
// plus the calling thread.
size_t EffectiveThreads(size_t width, size_t tasks) {
  if (width == 0) width = std::max(1u, std::thread::hardware_concurrency());
  return std::min({width, tasks, ThreadPool::Shared().threads() + 1});
}

// Best-of-`runs` ShardedIndexSet::Build time; sampling and slicing are
// inside the timed region, as they are for every caller.
double ShardedBuildMillis(const PhiMatrix& phi, size_t shards, size_t r,
                          size_t width, int runs) {
  ShardedIndexSetOptions options;
  options.shards = shards;
  options.set_options.budget = r;
  options.set_options.build_threads = width;
  const std::vector<ParameterDomain> domains(phi.dim(),
                                             ParameterDomain{1.0, 4.0});
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    PhiMatrix copy = phi;
    WallTimer timer;
    auto set = ShardedIndexSet::Build(std::move(copy), domains, options);
    const double ms = timer.ElapsedMillis();
    PLANAR_CHECK(set.ok());
    PLANAR_CHECK(set->num_shards() == shards);
    g_sink = static_cast<double>(set->shard(0).num_indices());
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
          bench::JsonStamp(EffectiveThreads(threads, normals.size()))
              .c_str());
    }
  }

  // Sharded: width 1 against full width (threads 0 = all cores).
  const size_t shards = 4;
  const size_t sharded_r = 10;
  const size_t sharded_n = smoke ? 20000 : 400000;
  const PhiMatrix sharded_phi = RandomPhi(sharded_n, dim, 1.0, 100.0, 59);
  TablePrinter sharded_table({"shards", "r", "n", "threads", "Mrows/s",
                              "speedup vs serial"});
  double sharded_serial_ms = 0.0;
  for (const size_t width : {size_t{1}, size_t{0}}) {
    const double ms =
        ShardedBuildMillis(sharded_phi, shards, sharded_r, width, runs);
    if (width == 1) sharded_serial_ms = ms;
    const double rows =
        static_cast<double>(sharded_r) * static_cast<double>(sharded_n);
    const double rows_per_sec = rows / (ms / 1000.0);
    const double speedup = ms > 0.0 ? sharded_serial_ms / ms : 0.0;
    sharded_table.AddRow({std::to_string(shards), std::to_string(sharded_r),
                          std::to_string(sharded_n), std::to_string(width),
                          FormatDouble(rows_per_sec / 1e6, 1),
                          FormatDouble(speedup, 2)});
    std::printf(
        "{\"bench\":\"build_sharded\",\"shards\":%zu,\"r\":%zu,\"n\":%zu,"
        "\"threads\":%zu,\"rows_per_sec\":%.0f,\"speedup_vs_serial\":%.2f%s}"
        "\n",
        shards, sharded_r, sharded_n, width, rows_per_sec, speedup,
        bench::JsonStamp(EffectiveThreads(width, shards * sharded_r))
            .c_str());
  }

  std::printf("\n");
  build_table.Print();
  std::printf("\n");
  sharded_table.Print();
  return 0;
}
