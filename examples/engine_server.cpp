// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Engine walkthrough: a concurrent query-serving runtime over a catalog
// of named Planar index sets. Demonstrates the full serving lifecycle —
// install, concurrent clients, a live (non-blocking) index rebuild,
// per-request deadlines, admission-control shedding, and the metrics
// snapshot — in one runnable program.
//
// Build & run:   ./build/examples/engine_server

#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/function.h"
#include "engine/engine.h"

using namespace planar;  // NOLINT: example brevity

namespace {

PlanarIndexSet BuildSet(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset points(3);
  for (size_t i = 0; i < n; ++i) {
    points.AppendRow(
        {rng.Uniform(1, 100), rng.Uniform(1, 100), rng.Uniform(1, 100)});
  }
  IdentityFunction phi_fn(3);
  PhiMatrix phi = MaterializePhi(points, phi_fn);
  IndexSetOptions options;
  options.budget = 12;
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 8.0}, {1.0, 8.0}, {1.0, 8.0}}, options);
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

}  // namespace

int main() {
  // 1. A catalog maps names to refcounted index-set snapshots. Building
  //    happens outside any lock; Install is an O(1) pointer swap.
  Catalog catalog;
  catalog.Install("products", BuildSet(50000, 1));
  std::printf("installed 'products' (%zu points)\n",
              catalog.Find("products")->size());

  // 2. An engine: bounded admission queue + worker pool, bound to the
  //    catalog. Requests are admitted or shed, never block the caller.
  EngineOptions options;
  options.num_workers = 4;
  options.queue_capacity = 512;
  Engine engine(&catalog, options);

  // 3. Concurrent clients fire scalar product queries while, in
  //    parallel, the "products" set is rebuilt and swapped live —
  //    in-flight queries keep their snapshot and are never invalidated.
  std::thread rebuilder([&catalog] {
    catalog.Install("products", BuildSet(60000, 2));  // never blocks readers
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&engine, c] {
      Rng rng(static_cast<uint64_t>(c) + 10);
      for (int i = 0; i < 50; ++i) {
        EngineRequest request;
        request.target = "products";
        request.kind = i % 4 == 0 ? QueryKind::kTopK : QueryKind::kInequality;
        request.k = 5;
        request.query.a = {rng.Uniform(1, 8), rng.Uniform(1, 8),
                           rng.Uniform(1, 8)};
        request.query.b = rng.Uniform(200, 900);
        request.deadline = Deadline::After(50.0);  // 50 ms budget
        auto future = engine.Submit(std::move(request));
        if (!future.ok()) continue;  // queue full: request was shed
        (void)future->get();
      }
    });
  }
  rebuilder.join();
  for (std::thread& t : clients) t.join();

  // 4. Deadlines are enforced inside the verification loops: a request
  //    whose budget is already spent comes back as kDeadlineExceeded
  //    without finishing (or even starting) the scalar product work.
  EngineRequest tight;
  tight.target = "products";
  tight.query = {{3.0, 5.0, 2.0}, 400.0, Comparison::kLessEqual};
  tight.deadline = Deadline::After(0.0);
  auto expired = engine.Submit(tight);
  PLANAR_CHECK(expired.ok());
  std::printf("expired deadline -> %s\n",
              expired->get().status.ToString().c_str());

  // 5. Unknown targets fail per-request, not per-engine.
  EngineRequest missing = tight;
  missing.target = "users";
  missing.deadline = Deadline::Infinite();
  auto not_found = engine.Submit(missing);
  PLANAR_CHECK(not_found.ok());
  std::printf("unknown target  -> %s\n",
              not_found->get().status.ToString().c_str());

  // 6. Graceful drain, then the built-in observability: lifecycle
  //    counters and latency/queue-wait histograms.
  engine.Drain();
  std::printf("\n%s\n", engine.Snapshot().ToString().c_str());
  return 0;
}
