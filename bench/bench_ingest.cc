// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Ingest subsystem bench: sustained concurrent insert rate and the query
// latency paid for it, swept over the background-merge threshold. A
// writer thread streams row batches through IngestManager::Append while
// closed-loop reader threads run inequality queries against the delta
// overlay; the same readers are first timed against the quiesced set so
// each configuration reports its latency regression factor.
//
//   --n         base rows already indexed   (default 20000)
//   --rows      rows streamed by the writer (default 40000)
//   --queries   queries per reader thread   (default 1500)
//   --readers   reader threads              (default 2)
//   --full      paper-scale base            (n = 100000)
//   --smoke     tiny sizes + bit-identity gate; non-zero exit on
//               mismatch between the overlay and a quiesced rebuild
//
// One JSON line per configuration; a trailing TablePrinter summary.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "ingest/ingest.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr char kTarget[] = "bench";

std::vector<ParameterDomain> Domains() {
  return {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
}

ScalarProductQuery RandomQuery(Rng* rng) {
  ScalarProductQuery q;
  q.a = {rng->Uniform(1, 6), -rng->Uniform(1, 6), rng->Uniform(1, 6)};
  q.b = rng->Uniform(-100, 300);
  q.cmp = Comparison::kLessEqual;
  return q;
}

double Percentile(std::vector<double>* latencies, double p) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = static_cast<size_t>(
      p / 100.0 * static_cast<double>(latencies->size() - 1) + 0.5);
  return (*latencies)[std::min(idx, latencies->size() - 1)];
}

struct ConfigResult {
  size_t threshold = 0;
  double ingest_rps = 0.0;   // sustained appended rows per second
  double quiesced_p50 = 0.0;  // ms, readers against the static set
  double quiesced_p99 = 0.0;
  double concurrent_p50 = 0.0;  // ms, readers racing the writer+merger
  double concurrent_p99 = 0.0;
  uint64_t merges = 0;
  uint64_t sheds = 0;
};

// Closed-loop readers; each runs `queries` inequality queries and
// appends its per-query latencies (ms) into its own slot of `out`.
void RunReaders(const IngestManager& manager, size_t readers, int queries,
                std::vector<double>* out,
                const std::atomic<bool>* stop_early) {
  std::vector<std::vector<double>> lanes(readers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&manager, &lanes, r, queries, stop_early] {
      Rng rng(900 + r);
      lanes[r].reserve(queries);
      for (int i = 0; i < queries; ++i) {
        if (stop_early != nullptr &&
            stop_early->load(std::memory_order_acquire)) {
          break;
        }
        const ScalarProductQuery q = RandomQuery(&rng);
        WallTimer timer;
        const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
        if (view == nullptr ||
            !view->Inequality(q, Deadline::Infinite()).ok()) {
          std::fprintf(stderr, "bench_ingest: query failed\n");
          std::abort();
        }
        lanes[r].push_back(timer.ElapsedMillis());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<double>& lane : lanes) {
    out->insert(out->end(), lane.begin(), lane.end());
  }
}

ConfigResult RunConfig(size_t n, size_t stream_rows, size_t threshold,
                       size_t readers, int queries, PhiMatrix* all_out) {
  Catalog catalog;
  PhiMatrix all(3);
  {
    PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, 3);
    for (size_t i = 0; i < phi.size(); ++i) all.AppendRow(phi.row(i));
    auto set = PlanarIndexSet::Build(std::move(phi), Domains());
    PLANAR_CHECK(set.ok());
    catalog.Install(kTarget, std::move(set).value());
  }
  Rng rng(17);
  std::vector<double> pool(stream_rows * 3);
  for (double& v : pool) v = rng.Uniform(-20.0, 80.0);
  for (size_t i = 0; i < stream_rows; ++i) all.AppendRow(pool.data() + i * 3);

  IngestOptions options;
  options.merge_threshold = threshold;
  options.delta_capacity = std::max<size_t>(threshold * 4, 4096);
  IngestManager manager(&catalog, options);
  PLANAR_CHECK(manager.Manage(kTarget).ok());

  ConfigResult r;
  r.threshold = threshold;

  // Phase 1: quiesced baseline — same readers, no writer, empty delta.
  std::vector<double> quiesced;
  RunReaders(manager, readers, queries, &quiesced, nullptr);
  r.quiesced_p50 = Percentile(&quiesced, 50);
  r.quiesced_p99 = Percentile(&quiesced, 99);

  // Phase 2: the writer streams the pool while the readers re-run. The
  // writer retries shed batches (counting them), so every pool row lands.
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> sheds{0};
  double ingest_seconds = 0.0;
  std::thread writer([&] {
    constexpr size_t kBatch = 256;
    WallTimer timer;
    size_t next = 0;
    while (next < stream_rows) {
      const size_t count = std::min(kBatch, stream_rows - next);
      auto first = manager.Append(
          kTarget, std::vector<double>(pool.begin() + next * 3,
                                       pool.begin() + (next + count) * 3));
      if (!first.ok()) {
        sheds.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        continue;
      }
      next += count;
    }
    ingest_seconds = timer.ElapsedSeconds();
    writer_done.store(true, std::memory_order_release);
  });
  std::vector<double> concurrent;
  RunReaders(manager, readers, queries, &concurrent, nullptr);
  writer.join();
  r.concurrent_p50 = Percentile(&concurrent, 50);
  r.concurrent_p99 = Percentile(&concurrent, 99);
  r.ingest_rps = ingest_seconds > 0.0
                     ? static_cast<double>(stream_rows) / ingest_seconds
                     : 0.0;
  r.sheds = sheds.load(std::memory_order_relaxed);

  const Status flushed = manager.Flush(kTarget);
  PLANAR_CHECK(flushed.ok());
  r.merges = manager.gauges().merges;
  PLANAR_CHECK_EQ(catalog.Find(kTarget)->size(), n + stream_rows);

  if (all_out != nullptr) {
    *all_out = std::move(all);
    // Keep the manager's final state reachable for the smoke gate: the
    // caller re-runs queries through a fresh manager over the installed
    // set, so nothing else to hand over.
  }
  return r;
}

// --smoke gate: the overlay (exercised during RunConfig) must answer
// exactly like a from-scratch build over the same rows once quiesced.
bool SmokeBitIdentity(const PhiMatrix& all) {
  Catalog catalog;
  {
    PhiMatrix base(3);
    for (size_t i = 0; i < all.size() / 2; ++i) base.AppendRow(all.row(i));
    auto set = PlanarIndexSet::Build(std::move(base), Domains());
    PLANAR_CHECK(set.ok());
    catalog.Install(kTarget, std::move(set).value());
  }
  IngestOptions options;
  options.merge_threshold = 64;  // force several merges
  options.delta_capacity = 4096;
  IngestManager manager(&catalog, options);
  PLANAR_CHECK(manager.Manage(kTarget).ok());
  for (size_t i = all.size() / 2; i < all.size(); i += 100) {
    const size_t count = std::min<size_t>(100, all.size() - i);
    std::vector<double> rows;
    rows.reserve(count * 3);
    for (size_t j = 0; j < count; ++j) {
      const double* row = all.row(i + j);
      rows.insert(rows.end(), row, row + 3);
    }
    const auto first = manager.Append(kTarget, rows);
    PLANAR_CHECK(first.ok());
  }
  PhiMatrix copy(3);
  for (size_t i = 0; i < all.size(); ++i) copy.AppendRow(all.row(i));
  auto fresh = PlanarIndexSet::Build(std::move(copy), Domains());
  PLANAR_CHECK(fresh.ok());

  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const ScalarProductQuery q = RandomQuery(&rng);
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    if (view == nullptr) return false;
    const Result<InequalityResult> got =
        view->Inequality(q, Deadline::Infinite());
    if (!got.ok()) return false;
    if (Sorted(got->ids) != Sorted(fresh->Inequality(q).ids)) return false;
    const Result<TopKResult> topk = view->TopK(q, 10, Deadline::Infinite());
    if (!topk.ok()) return false;
    auto want = fresh->TopK(q, 10);
    if (!want.ok() || topk->neighbors.size() != want->neighbors.size()) {
      return false;
    }
    for (size_t i = 0; i < want->neighbors.size(); ++i) {
      if (topk->neighbors[i].id != want->neighbors[i].id) return false;
    }
  }
  const Status flushed = manager.Flush(kTarget);
  PLANAR_CHECK(flushed.ok());
  for (int trial = 0; trial < 10; ++trial) {
    const ScalarProductQuery q = RandomQuery(&rng);
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    if (view == nullptr) return false;
    const Result<InequalityResult> got =
        view->Inequality(q, Deadline::Infinite());
    if (!got.ok()) return false;
    if (Sorted(got->ids) != Sorted(fresh->Inequality(q).ids)) return false;
  }
  return true;
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 2000 : bench::ScaledN(flags, 20000, 100000);
  const size_t stream_rows = smoke
                                 ? 4000
                                 : static_cast<size_t>(
                                       flags.GetInt("rows", 40000));
  const int queries =
      smoke ? 200 : static_cast<int>(flags.GetInt("queries", 1500));
  const size_t readers = static_cast<size_t>(flags.GetInt("readers", 2));

  bench::PrintHeader(
      "ingest",
      "sustained insert rate vs query latency over merge thresholds; " +
          std::to_string(readers) + " closed-loop readers, " +
          std::to_string(stream_rows) + " streamed rows");

  std::vector<size_t> thresholds =
      smoke ? std::vector<size_t>{256}
            : std::vector<size_t>{1024, 4096, 16384};
  TablePrinter table({"threshold", "ingest rows/s", "quiesced p50 ms",
                      "concurrent p50 ms", "concurrent p99 ms", "merges",
                      "sheds"});
  PhiMatrix all(3);
  for (const size_t threshold : thresholds) {
    const ConfigResult r =
        RunConfig(n, stream_rows, threshold, readers, queries, &all);
    table.AddRow({std::to_string(r.threshold), FormatDouble(r.ingest_rps, 0),
                  FormatDouble(r.quiesced_p50, 4),
                  FormatDouble(r.concurrent_p50, 4),
                  FormatDouble(r.concurrent_p99, 4),
                  std::to_string(r.merges), std::to_string(r.sheds)});
    std::printf(
        "{\"bench\":\"ingest\",\"n\":%zu,\"stream_rows\":%zu,"
        "\"merge_threshold\":%zu,\"readers\":%zu,\"ingest_rps\":%.1f,"
        "\"quiesced_p50_ms\":%.4f,\"quiesced_p99_ms\":%.4f,"
        "\"concurrent_p50_ms\":%.4f,\"concurrent_p99_ms\":%.4f,"
        "\"merges\":%llu,\"sheds\":%llu%s}\n",
        n, stream_rows, r.threshold, readers, r.ingest_rps, r.quiesced_p50,
        r.quiesced_p99, r.concurrent_p50, r.concurrent_p99,
        static_cast<unsigned long long>(r.merges),
        static_cast<unsigned long long>(r.sheds),
        bench::JsonStamp(readers + 2).c_str());
  }
  std::printf("\n");
  table.Print();

  if (smoke) {
    if (!SmokeBitIdentity(all)) {
      std::fprintf(stderr,
                   "bench_ingest: SMOKE FAILED — overlay diverged from the "
                   "quiesced rebuild\n");
      return 1;
    }
    std::printf("smoke: overlay bit-identical to quiesced rebuild — OK\n");
  }
  return 0;
}
