// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Ablations for the design choices called out in DESIGN.md §5 (not a
// paper figure):
//   1. best-index selection: volume/stretch vs angle minimization
//      (the paper reports volume winning; Section 7.1),
//   2. axis exclusion on/off (this library's extension of the paper's
//      zero-parameter-axis remark).
//
// Flags: --n (default 200k), --runs, --smoke (n = 20k, one run, and
// every configuration's ids checked against ScanInequality on 32
// queries; a mismatch exits non-zero).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/synthetic_harness.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table_printer.h"

int main(int argc, char** argv) {
  using namespace planar;         // NOLINT
  using namespace planar::bench;  // NOLINT
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 20000 : ScaledN(flags, 200000, 1000000);
  const int runs = smoke ? 1 : Runs(flags);
  const size_t dim = 6;
  const int rq = 8;  // enough query randomness that selection matters
  const size_t budget = 50;

  PrintHeader("Ablation",
              "Eq.-18 queries on Indp, n = " + std::to_string(n) +
                  ", dim = 6, RQ = 8, #index = 50");
  const Dataset data =
      MakeSynthetic(SyntheticDistribution::kIndependent, n, dim);

  TablePrinter table({"configuration", "query time (ms)", "pruning %"});
  struct Config {
    std::string name;
    IndexSetOptions::Selector selector;
    bool axis_exclusion;
  };
  const Config configs[] = {
      {"interval-count + exclusion (default)",
       IndexSetOptions::Selector::kIntervalCount, true},
      {"stretch/volume selection (paper)",
       IndexSetOptions::Selector::kStretch, true},
      {"angle selection (paper)", IndexSetOptions::Selector::kAngle, true},
      {"no axis exclusion (paper's intervals)",
       IndexSetOptions::Selector::kIntervalCount, false},
  };
  for (const Config& config : configs) {
    IndexSetOptions options;
    options.selector = config.selector;
    options.index_options.enable_axis_exclusion = config.axis_exclusion;
    PlanarIndexSet set = BuildEq18Set(data, rq, budget, options);
    if (smoke) {
      // Identity gate: every configuration answers the scan's ids.
      Eq18Workload check(set.phi(), rq, 0.25, /*seed=*/61);
      for (int i = 0; i < 32; ++i) {
        const ScalarProductQuery q = check.Next();
        std::vector<uint32_t> ids = set.Inequality(q).ids;
        std::sort(ids.begin(), ids.end());
        if (ids != ScanInequality(set.phi(), q).ids) {
          std::fprintf(stderr,
                       "FAIL: %s: ids differ from the scan at query %d\n",
                       config.name.c_str(), i);
          return 1;
        }
      }
    }
    Eq18Workload queries(set.phi(), rq, 0.25, /*seed=*/59);
    RunningStats pruning;
    const double ms = MeanMillis(
        [&] {
          pruning.Add(100.0 *
                      set.Inequality(queries.Next()).stats.PruningFraction());
        },
        runs);
    table.AddRow({config.name, FormatDouble(ms, 3),
                  FormatDouble(pruning.mean(), 1)});
  }
  table.Print();
  return 0;
}
