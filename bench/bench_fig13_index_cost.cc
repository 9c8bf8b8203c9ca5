// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Figure 13 of the paper: index construction cost and maintenance.
//   13(a) index-construction time vs dimensionality, #index 1..100.
//   13(b) memory consumption (MB) vs #index, per dimensionality.
//   13(c) per-index update time (ms) when 1..25% of the points change,
//         dimensions 6 and 10.
//
// Flags: --n (default 300k; --full = 1M), --runs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/synthetic_harness.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/planar_index.h"

namespace planar {
namespace {

// Measures the wall time of updating `fraction` of the points in a fresh
// single index; returns milliseconds.
double MeasureUpdates(const Dataset& data, double fraction) {
  PhiMatrix phi = MaterializePhi(data, IdentityFunction(data.dim()));
  std::vector<double> normal(data.dim(), 1.0);
  auto index = PlanarIndex::BuildFirstOctant(&phi, normal);
  PLANAR_CHECK(index.ok());

  const size_t updates =
      static_cast<size_t>(fraction * static_cast<double>(data.size()));
  Rng rng(71);
  std::vector<uint32_t> rows(updates);
  std::vector<double> value(data.dim());
  for (size_t i = 0; i < updates; ++i) {
    rows[i] = static_cast<uint32_t>(rng.UniformInt(data.size()));
    for (size_t j = 0; j < data.dim(); ++j) {
      value[j] = rng.Uniform(1.0, 100.0);
    }
    phi.SetRow(rows[i], value.data());
  }
  WallTimer timer;
  PLANAR_CHECK(index->UpdateBatch(rows));
  return timer.ElapsedMillis();
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;         // NOLINT
  using namespace planar::bench;  // NOLINT
  FlagParser flags(argc, argv);
  const size_t n = ScaledN(flags, 300000, 1000000);
  const int rq = 4;

  PrintHeader("Figure 13(a)",
              "index-construction time (s) vs dimensionality; n = " +
                  std::to_string(n));
  std::vector<PlanarIndexSet> kept_sets;  // reused for 13(b)
  std::vector<size_t> kept_dims;
  {
    TablePrinter table({"dim", "#index=1", "#index=10", "#index=50",
                        "#index=100"});
    for (size_t dim : {2u, 6u, 10u, 14u}) {
      const Dataset data =
          MakeSynthetic(SyntheticDistribution::kIndependent, n, dim);
      std::vector<std::string> row{std::to_string(dim)};
      for (size_t budget : {1u, 10u, 50u, 100u}) {
        WallTimer timer;
        PlanarIndexSet set = BuildEq18Set(data, rq, budget);
        row.push_back(FormatDouble(timer.ElapsedSeconds(), 2));
        if (budget == 100) {
          kept_sets.push_back(std::move(set));
          kept_dims.push_back(dim);
        }
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  PrintHeader("Figure 13(b)",
              "memory consumption (MB) of the index structure vs #index");
  {
    TablePrinter table({"dim", "#index=1", "#index=10", "#index=50",
                        "#index=100"});
    for (size_t i = 0; i < kept_sets.size(); ++i) {
      const PlanarIndexSet& set = kept_sets[i];
      // Per-index footprint scales linearly; report the measured footprint
      // of prefixes of the built 100-index set.
      const double phi_mb =
          static_cast<double>(set.phi().MemoryUsage()) / 1e6;
      const double total_mb = static_cast<double>(set.MemoryUsage()) / 1e6;
      const double per_index_mb =
          (total_mb - phi_mb) / static_cast<double>(set.num_indices());
      std::vector<std::string> row{std::to_string(kept_dims[i])};
      for (size_t budget : {1u, 10u, 50u, 100u}) {
        row.push_back(FormatDouble(
            phi_mb + per_index_mb * static_cast<double>(budget), 1));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  kept_sets.clear();

  PrintHeader("Figure 13(c)",
              "per-index update time (ms) vs percentage of points updated; "
              "n = " + std::to_string(n));
  {
    TablePrinter table({"% updated", "dim=6", "dim=10"});
    const Dataset data6 =
        MakeSynthetic(SyntheticDistribution::kIndependent, n, 6);
    const Dataset data10 =
        MakeSynthetic(SyntheticDistribution::kIndependent, n, 10);
    for (double pct : {1.0, 5.0, 10.0, 25.0}) {
      const double fraction = pct / 100.0;
      table.AddRow({FormatDouble(pct, 0),
                    FormatDouble(MeasureUpdates(data6, fraction), 1),
                    FormatDouble(MeasureUpdates(data10, fraction), 1)});
    }
    table.Print();
  }
  return 0;
}
