// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// planar_cli — build, inspect, and query Planar index sets from the
// command line.
//
//   planar_cli build --csv data.csv [--delimiter=';'] [--header]
//                    [--columns=2,3,4,5] [--max_rows=N]
//                    --domains="1:4,1:4,-2:-1" [--budget=50]
//                    --out=index.planar
//   planar_cli info  --index=index.planar
//   planar_cli query --index=index.planar --a="1,2,-0.5" --b=10
//                    [--cmp=le|ge] [--topk=K] [--explain]
//   planar_cli count --index=index.planar --a="1,2,-0.5" --b=10
//                    [--cmp=le|ge] [--tolerance=N] [--rel=F]
//   planar_cli append --index=index.planar (--csv=more.csv | --rows="1,2;3,4")
//                     [--out=index.planar]
//
// `append` routes the new rows through the ingest delta path (the same
// IngestManager the engine serves writes with), forces a background
// merge via Flush, and re-serializes the merged set — so the written
// file is byte-identical to a from-scratch build over the full data.
//
// The feature space of a CLI-built index is the raw CSV columns
// (phi = identity); use the library API for nonlinear phi.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/timer.h"
#include "core/index_set.h"
#include "core/scan.h"
#include "core/serialize.h"
#include "datagen/csv_loader.h"
#include "engine/catalog.h"
#include "ingest/ingest.h"

namespace planar {
namespace {

// Parses "a,b,c" into doubles.
Result<std::vector<double>> ParseDoubles(const std::string& text) {
  std::vector<double> out;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const std::string piece =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (piece.empty()) {
      return Status::InvalidArgument("empty element in list '" + text + "'");
    }
    char* end = nullptr;
    out.push_back(std::strtod(piece.c_str(), &end));
    if (end == piece.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad number '" + piece + "'");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Parses "lo:hi,lo:hi" into domains.
Result<std::vector<ParameterDomain>> ParseDomains(const std::string& text) {
  std::vector<ParameterDomain> out;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const std::string piece =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    const size_t colon = piece.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("domain '" + piece +
                                     "' is not of the form lo:hi");
    }
    PLANAR_ASSIGN_OR_RETURN(std::vector<double> lo,
                            ParseDoubles(piece.substr(0, colon)));
    PLANAR_ASSIGN_OR_RETURN(std::vector<double> hi,
                            ParseDoubles(piece.substr(colon + 1)));
    if (lo.size() != 1 || hi.size() != 1) {
      return Status::InvalidArgument("domain '" + piece +
                                     "' is not of the form lo:hi");
    }
    out.push_back({lo[0], hi[0]});
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Reads integer flag `name` into *out (default when absent). A value that
// is not a whole decimal number in [lo, hi] prints a usage error and
// returns false; the caller exits 2.
bool GetIntInRange(const FlagParser& flags, const char* name,
                   int64_t default_value, int64_t lo, int64_t hi,
                   int64_t* out) {
  *out = default_value;
  if (!flags.Has(name)) return true;
  const std::string text = flags.GetString(name, "");
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    std::fprintf(stderr, "--%s must be an integer in [%lld, %lld]\n", name,
                 static_cast<long long>(lo), static_cast<long long>(hi));
    return false;
  }
  *out = value;
  return true;
}

// Reads --cmp (le or ge) into *cmp; anything else prints a usage error
// and returns false.
bool GetComparison(const FlagParser& flags, Comparison* cmp) {
  const std::string text = flags.GetString("cmp", "le");
  if (text != "le" && text != "ge") {
    std::fprintf(stderr, "--cmp must be le or ge\n");
    return false;
  }
  *cmp = text == "ge" ? Comparison::kGreaterEqual : Comparison::kLessEqual;
  return true;
}

int RunBuild(const FlagParser& flags) {
  const std::string csv = flags.GetString("csv", "");
  const std::string out_path = flags.GetString("out", "index.planar");
  if (csv.empty()) {
    std::fprintf(stderr, "build requires --csv\n");
    return 2;
  }
  CsvOptions csv_options;
  const std::string delimiter = flags.GetString("delimiter", ",");
  csv_options.delimiter = delimiter.empty() ? ',' : delimiter[0];
  csv_options.has_header = flags.GetBool("header", false);
  int64_t max_rows = 0;
  int64_t budget = 0;
  if (!GetIntInRange(flags, "max_rows", 0, 0,
                     std::numeric_limits<int64_t>::max(), &max_rows) ||
      !GetIntInRange(flags, "budget", 50, 1,
                     static_cast<int64_t>(kMaxIndexBudget), &budget)) {
    return 2;
  }
  csv_options.max_rows = static_cast<size_t>(max_rows);
  if (flags.Has("columns")) {
    auto columns = ParseDoubles(flags.GetString("columns", ""));
    if (!columns.ok()) return Fail(columns.status());
    for (double c : *columns) {
      csv_options.columns.push_back(static_cast<int>(c));
    }
  }
  WallTimer load_timer;
  auto data = LoadCsv(csv, csv_options);
  if (!data.ok()) return Fail(data.status());
  std::printf("loaded %zu rows x %zu columns in %.2f s\n", data->size(),
              data->dim(), load_timer.ElapsedSeconds());

  auto domains = ParseDomains(flags.GetString(
      "domains", std::string()));
  if (!domains.ok()) return Fail(domains.status());

  IndexSetOptions options;
  options.budget = static_cast<size_t>(budget);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  WallTimer build_timer;
  auto set = PlanarIndexSet::Build(std::move(*data), *domains, options);
  if (!set.ok()) return Fail(set.status());
  std::printf("built %zu Planar indices in %.2f s (%.1f MB)\n",
              set->num_indices(), build_timer.ElapsedSeconds(),
              static_cast<double>(set->MemoryUsage()) / 1e6);
  const Status saved = SaveIndexSet(*set, out_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("saved to %s\n", out_path.c_str());
  return 0;
}

int RunInfo(const FlagParser& flags) {
  auto set = LoadIndexSet(flags.GetString("index", "index.planar"));
  if (!set.ok()) return Fail(set.status());
  std::printf("points: %zu  dimensions: %zu  indices: %zu  memory: %.1f MB\n",
              set->size(), set->phi().dim(), set->num_indices(),
              static_cast<double>(set->MemoryUsage()) / 1e6);
  for (size_t i = 0; i < set->num_indices(); ++i) {
    const PlanarIndex& index = set->index(i);
    std::printf("  index %zu: octant %s normal (", i,
                index.octant().ToString().c_str());
    for (size_t j = 0; j < index.normal().size(); ++j) {
      std::printf("%s%.4g", j == 0 ? "" : ", ", index.normal()[j]);
    }
    std::printf(")\n");
  }
  return 0;
}

int RunQuery(const FlagParser& flags) {
  auto set = LoadIndexSet(flags.GetString("index", "index.planar"));
  if (!set.ok()) return Fail(set.status());

  auto a = ParseDoubles(flags.GetString("a", ""));
  if (!a.ok()) return Fail(a.status());
  ScalarProductQuery q;
  q.a = *a;
  q.b = flags.GetDouble("b", 0.0);
  if (!GetComparison(flags, &q.cmp)) return 2;
  if (q.a.size() != set->phi().dim()) {
    std::fprintf(stderr, "--a needs %zu coefficients\n", set->phi().dim());
    return 2;
  }
  int64_t topk = 0;
  if (!GetIntInRange(flags, "topk", 0, 0,
                     std::numeric_limits<int64_t>::max(), &topk)) {
    return 2;
  }

  if (flags.GetBool("explain", false)) {
    std::printf("plan: %s\n", set->Explain(q).ToString().c_str());
    const auto bounds = set->EstimateSelectivity(q);
    std::printf("selectivity bounds: [%.2f%%, %.2f%%]\n", 100.0 * bounds.lo,
                100.0 * bounds.hi);
  }

  WallTimer timer;
  if (topk > 0) {
    auto result = set->TopK(q, static_cast<size_t>(topk));
    if (!result.ok()) return Fail(result.status());
    std::printf("%zu nearest satisfying rows in %.3f ms (checked %zu):\n",
                result->neighbors.size(), timer.ElapsedMillis(),
                result->stats.checked());
    for (const Neighbor& n : result->neighbors) {
      std::printf("  row %u  distance %.6g\n", n.id, n.distance);
    }
    return 0;
  }
  const InequalityResult result = set->Inequality(q);
  std::printf("%zu matching rows in %.3f ms (%.1f%% pruned, index %d)\n",
              result.ids.size(), timer.ElapsedMillis(),
              100.0 * result.stats.PruningFraction(),
              result.stats.index_used);
  const size_t show = std::min<size_t>(result.ids.size(), 10);
  for (size_t i = 0; i < show; ++i) {
    std::printf("  row %u\n", result.ids[i]);
  }
  if (result.ids.size() > show) {
    std::printf("  ... and %zu more\n", result.ids.size() - show);
  }
  return 0;
}

int RunCount(const FlagParser& flags) {
  auto set = LoadIndexSet(flags.GetString("index", "index.planar"));
  if (!set.ok()) return Fail(set.status());

  auto a = ParseDoubles(flags.GetString("a", ""));
  if (!a.ok()) return Fail(a.status());
  ScalarProductQuery q;
  q.a = *a;
  q.b = flags.GetDouble("b", 0.0);
  if (!GetComparison(flags, &q.cmp)) return 2;
  if (q.a.size() != set->phi().dim()) {
    std::fprintf(stderr, "--a needs %zu coefficients\n", set->phi().dim());
    return 2;
  }

  CountTolerance tolerance;
  tolerance.absolute = flags.GetDouble("tolerance", 0.0);
  tolerance.relative = flags.GetDouble("rel", 0.0);

  WallTimer timer;
  auto result = set->CountInequality(q, tolerance);
  if (!result.ok()) return Fail(result.status());
  std::printf("bounds [%zu, %zu]  estimate %zu%s in %.3f ms "
              "(%s%zu rows verified, index %d)\n",
              result->lower, result->upper, result->estimate,
              result->model_estimated ? " (model)" : "",
              timer.ElapsedMillis(), result->refined ? "refined, " : "",
              result->stats.verified, result->stats.index_used);
  if (result->exact) {
    std::printf("exact count: %zu\n", result->estimate);
    return 0;
  }
  // The approximate answer came back within tolerance without resolving
  // every II row; re-run at tolerance 0 so the user also sees the truth.
  WallTimer exact_timer;
  auto exact = set->CountInequality(q);
  if (!exact.ok()) return Fail(exact.status());
  std::printf("exact count: %zu in %.3f ms (%zu rows verified)\n",
              exact->estimate, exact_timer.ElapsedMillis(),
              exact->stats.verified);
  return 0;
}

int RunAppend(const FlagParser& flags) {
  const std::string index_path = flags.GetString("index", "index.planar");
  const std::string out_path = flags.GetString("out", index_path);
  auto set = LoadIndexSet(index_path);
  if (!set.ok()) return Fail(set.status());
  const size_t dim = set->phi().dim();
  const size_t before = set->size();

  // Gather the rows to append: a CSV file, inline --rows, or both.
  std::vector<double> rows;
  if (flags.Has("csv")) {
    CsvOptions csv_options;
    const std::string delimiter = flags.GetString("delimiter", ",");
    csv_options.delimiter = delimiter.empty() ? ',' : delimiter[0];
    csv_options.has_header = flags.GetBool("header", false);
    auto data = LoadCsv(flags.GetString("csv", ""), csv_options);
    if (!data.ok()) return Fail(data.status());
    if (data->dim() != dim) {
      std::fprintf(stderr, "csv has %zu columns, index expects %zu\n",
                   data->dim(), dim);
      return 2;
    }
    rows.insert(rows.end(), data->data(), data->data() + data->size() * dim);
  }
  if (flags.Has("rows")) {
    std::string text = flags.GetString("rows", "");
    size_t start = 0;
    while (start <= text.size()) {
      const size_t semi = text.find(';', start);
      const std::string piece =
          text.substr(start, semi == std::string::npos ? std::string::npos
                                                       : semi - start);
      auto row = ParseDoubles(piece);
      if (!row.ok()) return Fail(row.status());
      if (row->size() != dim) {
        std::fprintf(stderr, "row '%s' has %zu values, index expects %zu\n",
                     piece.c_str(), row->size(), dim);
        return 2;
      }
      rows.insert(rows.end(), row->begin(), row->end());
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  if (rows.empty()) {
    std::fprintf(stderr, "append requires --csv and/or --rows\n");
    return 2;
  }

  // The library write path: install the set, hand it to an
  // IngestManager, append through the delta, and force a merge. The
  // final catalog snapshot is the merged set.
  constexpr char kName[] = "cli";
  Catalog catalog;
  catalog.Install(kName, std::move(set).value());
  const size_t count = rows.size() / dim;
  IngestOptions options;
  options.delta_capacity = count;
  options.merge_threshold = count;
  IngestManager manager(&catalog, options);
  Status status = manager.Manage(kName);
  if (!status.ok()) return Fail(status);
  WallTimer timer;
  auto first = manager.Append(kName, rows);
  if (!first.ok()) return Fail(first.status());
  status = manager.Flush(kName);
  if (!status.ok()) return Fail(status);
  manager.Stop();
  const Catalog::SetPtr merged = catalog.Find(kName);
  std::printf("appended %zu rows (ids %u..%zu) in %.2f s: %zu -> %zu points\n",
              count, first.value(), before + count - 1,
              timer.ElapsedSeconds(), before, merged->size());
  status = SaveIndexSet(*merged, out_path);
  if (!status.ok()) return Fail(status);
  std::printf("saved to %s\n", out_path.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (command == "build") return RunBuild(flags);
  if (command == "info") return RunInfo(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "count") return RunCount(flags);
  if (command == "append") return RunAppend(flags);
  std::fprintf(stderr,
               "usage: planar_cli <build|info|query|count|append> [flags]\n"
               "  build --csv=f [--delimiter=';'] [--header] "
               "[--columns=0,1,2] --domains=lo:hi,... [--budget=N] "
               "[--out=index.planar]\n"
               "  info  --index=index.planar\n"
               "  query --index=index.planar --a=1,2,3 --b=10 [--cmp=le|ge] "
               "[--topk=K] [--explain]\n"
               "  count --index=index.planar --a=1,2,3 --b=10 [--cmp=le|ge] "
               "[--tolerance=N] [--rel=F]\n"
               "  append --index=index.planar (--csv=f | --rows='1,2;3,4') "
               "[--out=index.planar]\n");
  return 2;
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) { return planar::Run(argc, argv); }
