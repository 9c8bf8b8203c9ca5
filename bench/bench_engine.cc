// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Engine round trip in a closed loop: 2 client threads, each with one
// request outstanding, against an Engine with 2 workers. A client times
// its request from before Submit until the future is ready, polling the
// future for up to 50 µs before it blocks (as perfbench's readers do).
// Two targets:
//   missing  a name not in the catalog: the worker answers kNotFound at
//            once, so the round trip is the handoff floor (Submit, queue,
//            promise and future) with no query work;
//   count    COUNT at relative tolerance 0.01 on 100k rows, d = 2,
//            Eq.-18 data and queries (perfbench small_selective's target
//            and count requests).
// Each line reports the p50/p90 round trip, the median Submit call, the
// median queue wait (EngineResponse::queue_millis, admission to pickup)
// and the median execution (execute_millis).
//
//   --seconds  timed window per target after a 0.5 s warm-up (default 3)
//   --n        rows of the count target (default 100000)
//   --smoke    500 requests per client and target, 20k rows; every status
//              and count is checked against a direct call (exit 1 on a
//              mismatch) — the CI gate for the engine handoff

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "engine/catalog.h"
#include "engine/engine.h"

namespace planar {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kSmokeRequests = 500;
constexpr double kRelativeTolerance = 0.01;
constexpr auto kClientSpin = std::chrono::microseconds(50);

double MicrosSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Waits until `future` is ready: polls it for up to kClientSpin, then
/// blocks.
void WaitReady(const std::future<EngineResponse>& future) {
  const auto spin_until = Clock::now() + kClientSpin;
  do {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      return;
    }
  } while (Clock::now() < spin_until);
  future.wait();
}

/// One client's samples, in microseconds.
struct Samples {
  std::vector<double> round_trip;
  std::vector<double> submit;
  std::vector<double> queue;
  std::vector<double> execute;
  size_t failed = 0;      ///< shed, or a response that failed its check
  size_t mismatched = 0;  ///< smoke: response differs from the direct call
};

struct Target {
  const char* label;
  std::string name;              ///< catalog entry the requests name
  const PlanarIndexSet* set;     ///< null for the missing target
};

bool SameCount(const CountResult& a, const CountResult& b) {
  return a.lower == b.lower && a.upper == b.upper &&
         a.estimate == b.estimate && a.exact == b.exact;
}

void ClientLoop(Engine* engine, const Target& target, const PhiMatrix& phi,
                uint64_t seed, bool smoke, Clock::time_point end,
                Samples* out) {
  Eq18Workload queries(phi, 2, 0.05, seed);
  for (size_t i = 0; smoke ? i < kSmokeRequests : Clock::now() < end; ++i) {
    EngineRequest request;
    request.target = target.name;
    request.kind = QueryKind::kCount;
    request.query = queries.Next();
    request.tolerance.relative = kRelativeTolerance;
    const ScalarProductQuery query = request.query;
    const auto start = Clock::now();
    auto submitted = engine->Submit(std::move(request));
    const auto admitted = Clock::now();
    if (!submitted.ok()) {
      ++out->failed;
      continue;
    }
    WaitReady(*submitted);
    const auto done = Clock::now();
    const EngineResponse response = submitted->get();
    out->round_trip.push_back(MicrosSince(start, done));
    out->submit.push_back(MicrosSince(start, admitted));
    out->queue.push_back(response.queue_millis * 1e3);
    out->execute.push_back(response.execute_millis * 1e3);
    const bool want_ok = target.set != nullptr;
    if (response.status.ok() != want_ok) ++out->failed;
    if (!smoke) continue;
    if (!want_ok) {
      if (response.status.code() != StatusCode::kNotFound) ++out->mismatched;
      continue;
    }
    CountTolerance tolerance;
    tolerance.relative = kRelativeTolerance;
    auto direct = target.set->CountInequality(query, tolerance);
    if (!direct.ok() || !SameCount(*direct, response.count)) {
      ++out->mismatched;
    }
  }
}

/// Runs the closed loop against `target` and merges the clients' samples.
Samples RunLoop(const Target& target, const PhiMatrix& phi, Catalog* catalog,
                bool smoke, double seconds, uint64_t seed) {
  EngineOptions options;
  options.num_workers = kWorkers;
  Engine engine(catalog, options);
  const auto run = [&](double window, bool keep) {
    const auto end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(window));
    std::vector<Samples> per_client(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, &engine, std::cref(target),
                           std::cref(phi), seed + c, smoke, end,
                           &per_client[c]);
    }
    for (std::thread& t : clients) t.join();
    Samples merged;
    if (!keep) return merged;
    for (const Samples& s : per_client) {
      merged.round_trip.insert(merged.round_trip.end(), s.round_trip.begin(),
                               s.round_trip.end());
      merged.submit.insert(merged.submit.end(), s.submit.begin(),
                           s.submit.end());
      merged.queue.insert(merged.queue.end(), s.queue.begin(), s.queue.end());
      merged.execute.insert(merged.execute.end(), s.execute.begin(),
                            s.execute.end());
      merged.failed += s.failed;
      merged.mismatched += s.mismatched;
    }
    return merged;
  };
  if (!smoke) (void)run(0.5, false);  // warm-up
  Samples samples = run(seconds, true);
  engine.Drain();
  return samples;
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const double seconds = flags.GetDouble("seconds", 3.0);
  const size_t n =
      smoke ? 20000 : static_cast<size_t>(flags.GetInt("n", 100000));

  bench::PrintHeader(
      "engine round trip",
      "closed loop, 2 clients x 2 workers: Submit -> future ready; the "
      "missing target is the handoff floor");

  SyntheticSpec spec;
  spec.num_points = n;
  spec.dim = 2;
  spec.range_lo = 1.0;
  spec.range_hi = 100.0;
  spec.seed = 27;
  const PhiMatrix phi = GenerateSynthetic(spec);  // phi(x) = x
  Catalog catalog;
  auto set = catalog.BuildAndInstall(
      "count", PhiMatrix(phi), Eq18Workload(phi, 2, 0.05, 0).Domains());
  PLANAR_CHECK(set.ok());

  const std::vector<Target> targets = {{"missing", "missing", nullptr},
                                       {"count", "count", set->get()}};
  TablePrinter table({"target", "requests", "p50 us", "p90 us", "submit us",
                      "queue us", "execute us", "failed"});
  size_t failed = 0;
  size_t mismatched = 0;
  for (const Target& target : targets) {
    const Samples s = RunLoop(target, phi, &catalog, smoke, seconds, 71);
    PLANAR_CHECK(!s.round_trip.empty());
    const double p50 = Percentile(s.round_trip, 50);
    const double p90 = Percentile(s.round_trip, 90);
    const double submit = Percentile(s.submit, 50);
    const double queue = Percentile(s.queue, 50);
    const double execute = Percentile(s.execute, 50);
    std::printf(
        "{\"bench\":\"engine\",\"target\":\"%s\",\"n\":%zu,\"clients\":%zu,"
        "\"workers\":%zu,\"requests\":%zu,\"seconds\":%.1f,\"p50_us\":%.3f,"
        "\"p90_us\":%.3f,\"submit_p50_us\":%.3f,\"queue_p50_us\":%.3f,"
        "\"execute_p50_us\":%.3f,\"failed\":%zu%s}\n",
        target.label, target.set != nullptr ? n : size_t{0}, kClients,
        kWorkers, s.round_trip.size(), smoke ? 0.0 : seconds, p50, p90, submit,
        queue, execute, s.failed, bench::JsonStamp(kClients + kWorkers).c_str());
    table.AddRow({target.label, std::to_string(s.round_trip.size()),
                  FormatDouble(p50, 2), FormatDouble(p90, 2),
                  FormatDouble(submit, 2), FormatDouble(queue, 2),
                  FormatDouble(execute, 2), std::to_string(s.failed)});
    failed += s.failed;
    mismatched += s.mismatched;
  }
  std::printf("\n");
  table.Print();
  if (failed > 0 || mismatched > 0) {
    std::fprintf(stderr, "FAIL: %zu failed, %zu differ from direct calls\n",
                 failed, mismatched);
    return 1;
  }
  if (smoke) std::printf("smoke: OK (every status and count checked)\n");
  return 0;
}
