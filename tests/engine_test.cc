// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "engine/engine.h"

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded.h"
#include "engine/bounded_queue.h"
#include "engine/catalog.h"
#include "ingest/ingest.h"
#include "tests/test_util.h"

namespace planar {
namespace {

PlanarIndexSet MakeSet(uint64_t seed, size_t n = 500) {
  PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, seed);
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}});
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

ScalarProductQuery MakeQuery(double b = 100.0) {
  ScalarProductQuery q;
  q.a = {2.0, -3.0, 4.0};
  q.b = b;
  q.cmp = Comparison::kLessEqual;
  return q;
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(queue.TryPush(std::move(a)));
  EXPECT_TRUE(queue.TryPush(std::move(b)));
  EXPECT_FALSE(queue.TryPush(std::move(c)));  // full: shed, not block
  EXPECT_EQ(queue.size(), 2u);

  std::vector<int> batch;
  EXPECT_EQ(queue.TryPopBatch(&batch, 10), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
}

TEST(BoundedQueueTest, CloseThenDrain) {
  BoundedQueue<int> queue(4);
  int a = 1, b = 2;
  ASSERT_TRUE(queue.TryPush(std::move(a)));
  ASSERT_TRUE(queue.TryPush(std::move(b)));
  queue.Close();
  int c = 3;
  EXPECT_FALSE(queue.TryPush(std::move(c)));  // closed rejects producers
  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(&batch, 1), 1u);  // queued items stay poppable
  EXPECT_EQ(queue.PopBatch(&batch, 10), 1u);
  EXPECT_EQ(queue.PopBatch(&batch, 10), 0u);  // closed-and-drained
}

TEST(CatalogTest, InstallFindDrop) {
  Catalog catalog;
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.Find("main"), nullptr);

  catalog.Install("main", MakeSet(11));
  ASSERT_NE(catalog.Find("main"), nullptr);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.Names(), (std::vector<std::string>{"main"}));

  EXPECT_TRUE(catalog.Drop("main"));
  EXPECT_FALSE(catalog.Drop("main"));
  EXPECT_EQ(catalog.Find("main"), nullptr);
}

TEST(CatalogTest, BuildAndInstallBuildsWithThePool) {
  Catalog catalog;
  // The width rides in the options: the built set must be
  // indistinguishable from an Install of the same definition.
  IndexSetOptions options;
  options.build_threads = 4;
  auto installed = catalog.BuildAndInstall(
      "main", RandomPhi(500, 3, -20.0, 80.0, 11),
      {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}}, options);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  ASSERT_NE(*installed, nullptr);
  EXPECT_EQ(catalog.Find("main"), *installed);

  const PlanarIndexSet reference = MakeSet(11);
  ASSERT_EQ((*installed)->num_indices(), reference.num_indices());
  for (size_t i = 0; i < reference.num_indices(); ++i) {
    EXPECT_EQ((*installed)->index(i).normal(), reference.index(i).normal());
  }
  const InequalityResult got = (*installed)->Inequality(MakeQuery());
  EXPECT_EQ(Sorted(got.ids),
            BruteForceMatches((*installed)->phi(), MakeQuery()));

  // A failing build must leave the catalog untouched.
  auto bad = catalog.BuildAndInstall("broken", PhiMatrix(3),
                                     {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(catalog.Find("broken"), nullptr);
}

TEST(CatalogTest, InstallSwapsSnapshotWithoutInvalidatingReaders) {
  Catalog catalog;
  catalog.Install("main", MakeSet(12, 100));
  const Catalog::SetPtr before = catalog.Find("main");
  const uint64_t version_before = catalog.version();

  catalog.Install("main", MakeSet(13, 200));
  const Catalog::SetPtr after = catalog.Find("main");

  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before, after);
  EXPECT_GT(catalog.version(), version_before);
  // The old snapshot is still fully queryable.
  EXPECT_EQ(before->size(), 100u);
  EXPECT_EQ(after->size(), 200u);
  const InequalityResult old_answer = before->Inequality(MakeQuery());
  EXPECT_EQ(Sorted(old_answer.ids),
            BruteForceMatches(before->phi(), MakeQuery()));
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() { catalog_.Install("main", MakeSet(21)); }
  Catalog catalog_;
};

TEST_F(EngineTest, ExecutesInequalityAndTopK) {
  EngineOptions options;
  Engine engine(&catalog_, options);

  EngineRequest inequality;
  inequality.target = "main";
  inequality.query = MakeQuery();
  auto f1 = engine.Submit(std::move(inequality));
  ASSERT_TRUE(f1.ok());

  EngineRequest topk;
  topk.target = "main";
  topk.kind = QueryKind::kTopK;
  topk.query = MakeQuery();
  topk.k = 5;
  auto f2 = engine.Submit(std::move(topk));
  ASSERT_TRUE(f2.ok());

  const EngineResponse r1 = f1->get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  const Catalog::SetPtr set = catalog_.Find("main");
  EXPECT_EQ(Sorted(r1.inequality.ids),
            BruteForceMatches(set->phi(), MakeQuery()));
  EXPECT_GE(r1.execute_millis, 0.0);
  EXPECT_GE(r1.queue_millis, 0.0);

  const EngineResponse r2 = f2->get();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r2.topk.neighbors.size(), 5u);
}

TEST_F(EngineTest, ExecutesCountAndAggregateRequests) {
  // A second target with a payload column so kAggregate has a sum to
  // answer; "main" serves the plain count.
  {
    PhiMatrix phi = RandomPhi(600, 3, 1.0, 80.0, 33);
    IndexSetOptions with_payload;
    with_payload.index_options.payload_column = 2;
    auto set = PlanarIndexSet::Build(
        std::move(phi), {{1.0, 6.0}, {1.0, 6.0}, {1.0, 6.0}}, with_payload);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    catalog_.Install("paid", std::move(set).value());
  }
  EngineOptions options;
  Engine engine(&catalog_, options);

  EngineRequest count;
  count.target = "main";
  count.kind = QueryKind::kCount;
  count.query = MakeQuery();
  auto f1 = engine.Submit(std::move(count));
  ASSERT_TRUE(f1.ok());

  ScalarProductQuery paid_query;
  paid_query.a = {2.0, 3.0, 4.0};
  paid_query.b = 400.0;
  paid_query.cmp = Comparison::kLessEqual;
  EngineRequest aggregate;
  aggregate.target = "paid";
  aggregate.kind = QueryKind::kAggregate;
  aggregate.query = paid_query;
  auto f2 = engine.Submit(std::move(aggregate));
  ASSERT_TRUE(f2.ok());

  const EngineResponse r1 = f1->get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  const Catalog::SetPtr main_set = catalog_.Find("main");
  EXPECT_TRUE(r1.count.exact);
  EXPECT_EQ(r1.count.estimate,
            BruteForceMatches(main_set->phi(), MakeQuery()).size());

  const EngineResponse r2 = f2->get();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  const Catalog::SetPtr paid_set = catalog_.Find("paid");
  double want_sum = 0.0;
  size_t want_count = 0;
  for (size_t i = 0; i < paid_set->phi().size(); ++i) {
    if (paid_query.Matches(paid_set->phi().row(i))) {
      want_sum += paid_set->phi().row(i)[2];
      ++want_count;
    }
  }
  EXPECT_TRUE(r2.aggregate.exact);
  EXPECT_DOUBLE_EQ(r2.aggregate.sum, want_sum);
  EXPECT_EQ(r2.aggregate.count.estimate, want_count);

  engine.Drain();
  const DebugSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.counters.count_queries, 2u);
  EXPECT_EQ(snapshot.bound_gap.count(), 2u);  // one gap sample per request
}

TEST_F(EngineTest, CountRequestsStayExactInsideMixedBatches) {
  EngineOptions options;
  options.num_workers = 0;  // RunPending drives each pop
  Engine engine(&catalog_, options);
  const Catalog::SetPtr set = catalog_.Find("main");

  // Interleave count requests with inequality requests; the counts
  // popped beside them must stay bit-exact.
  std::vector<std::future<EngineResponse>> count_futures;
  std::vector<std::future<EngineResponse>> ineq_futures;
  std::vector<double> thresholds = {60.0, 100.0, 140.0, 180.0};
  for (double b : thresholds) {
    EngineRequest ineq;
    ineq.target = "main";
    ineq.query = MakeQuery(b);
    auto fi = engine.Submit(std::move(ineq));
    ASSERT_TRUE(fi.ok());
    ineq_futures.push_back(std::move(*fi));

    EngineRequest count;
    count.target = "main";
    count.kind = QueryKind::kCount;
    count.query = MakeQuery(b);
    auto fc = engine.Submit(std::move(count));
    ASSERT_TRUE(fc.ok());
    count_futures.push_back(std::move(*fc));
  }
  while (engine.RunPending() > 0) {
  }
  for (size_t i = 0; i < thresholds.size(); ++i) {
    const EngineResponse ineq = ineq_futures[i].get();
    const EngineResponse count = count_futures[i].get();
    ASSERT_TRUE(ineq.status.ok());
    ASSERT_TRUE(count.status.ok());
    EXPECT_TRUE(count.count.exact);
    EXPECT_EQ(count.count.estimate, ineq.inequality.ids.size()) << i;
    EXPECT_EQ(count.count.estimate,
              BruteForceMatches(set->phi(), MakeQuery(thresholds[i])).size())
        << i;
  }
}

TEST_F(EngineTest, ShardedCountRoutesThroughScatterGather) {
  PhiMatrix phi = RandomPhi(2000, 3, -20.0, 80.0, 44);
  PhiMatrix copy(phi.dim());
  copy.Reserve(phi.size());
  for (size_t i = 0; i < phi.size(); ++i) copy.AppendRow(phi.row(i));
  ShardedIndexSetOptions sharded_options;
  sharded_options.shards = 4;
  sharded_options.min_rows_per_shard = 1;
  auto sharded = ShardedIndexSet::Build(
      std::move(copy), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}},
      sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  catalog_.InstallSharded("wide", std::move(sharded).value());

  EngineOptions options;
  Engine engine(&catalog_, options);
  EngineRequest count;
  count.target = "wide";
  count.kind = QueryKind::kCount;
  count.query = MakeQuery();
  auto future = engine.Submit(std::move(count));
  ASSERT_TRUE(future.ok());
  const EngineResponse response = future->get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.count.exact);
  EXPECT_EQ(response.count.estimate, BruteForceMatches(phi, MakeQuery()).size());

  engine.Drain();
  const DebugSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.counters.sharded_queries, 1u);
  EXPECT_EQ(snapshot.counters.count_queries, 1u);
  EXPECT_EQ(snapshot.counters.count_refined, response.count.refined ? 1u : 0u);
}

TEST_F(EngineTest, ShardedTargetRoutesThroughScatterGather) {
  EngineOptions options;
  options.num_workers = 0;
  options.shards = 3;  // default shard count for installs below
  Engine engine(&catalog_, options);

  PhiMatrix phi = RandomPhi(600, 3, -20.0, 80.0, 33);
  ShardedIndexSetOptions sharded_options;
  sharded_options.min_rows_per_shard = 1;
  auto installed = engine.BuildAndInstallSharded(
      "sharded", PhiMatrix(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}},
      sharded_options);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  // options.shards was 0: EngineOptions::shards decides.
  EXPECT_EQ(installed.value()->num_shards(), 3u);

  EngineRequest inequality;
  inequality.target = "sharded";
  inequality.query = MakeQuery();
  auto f1 = engine.Submit(std::move(inequality));
  ASSERT_TRUE(f1.ok());

  EngineRequest topk;
  topk.target = "sharded";
  topk.kind = QueryKind::kTopK;
  topk.query = MakeQuery();
  topk.k = 5;
  auto f2 = engine.Submit(std::move(topk));
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(engine.RunPending(), 2u);

  // Sharded answers are canonical (ascending ids) — equal to the brute
  // force reference without re-sorting.
  const EngineResponse r1 = f1->get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.inequality.ids, BruteForceMatches(phi, MakeQuery()));

  // And the top-k is bit-identical to a monolithic set over the same
  // rows.
  const EngineResponse r2 = f2->get();
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  auto mono = PlanarIndexSet::Build(
      PhiMatrix(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}});
  ASSERT_TRUE(mono.ok());
  auto want = mono.value().TopK(MakeQuery(), 5);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(r2.topk.neighbors.size(), want.value().neighbors.size());
  for (size_t i = 0; i < want.value().neighbors.size(); ++i) {
    EXPECT_EQ(r2.topk.neighbors[i].id, want.value().neighbors[i].id);
    EXPECT_EQ(r2.topk.neighbors[i].distance,
              want.value().neighbors[i].distance);
  }

  const DebugSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.counters.sharded_queries, 2u);
  EXPECT_EQ(snapshot.shard_fanout.count(), 2u);
  EXPECT_DOUBLE_EQ(snapshot.shard_fanout.mean(), 3.0);

  // Dropping the sharded entry makes the name unknown again.
  EXPECT_TRUE(catalog_.Drop("sharded"));
  EngineRequest gone;
  gone.target = "sharded";
  gone.query = MakeQuery();
  auto f3 = engine.Submit(std::move(gone));
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(engine.RunPending(), 1u);
  EXPECT_EQ(f3->get().status.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, PoppedInequalitiesAgainstShardedTargetFanOutEach) {
  // 0 workers + RunPending: one deterministic pop. Three inequality
  // requests against the sharded entry each fan out across the shards —
  // three sharded executions in the metrics, each answered canonically.
  EngineOptions options;
  options.num_workers = 0;
  Engine engine(&catalog_, options);

  PhiMatrix phi = RandomPhi(400, 3, -20.0, 80.0, 35);
  ShardedIndexSetOptions sharded_options;
  sharded_options.shards = 2;
  sharded_options.min_rows_per_shard = 1;
  ASSERT_TRUE(engine
                  .BuildAndInstallSharded(
                      "sharded", PhiMatrix(phi),
                      {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}},
                      sharded_options)
                  .ok());

  const double cutoffs[] = {50.0, 100.0, 150.0};
  std::vector<std::future<EngineResponse>> futures;
  for (const double b : cutoffs) {
    EngineRequest request;
    request.target = "sharded";
    request.query = MakeQuery(b);
    auto future = engine.Submit(std::move(request));
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(*future));
  }
  EXPECT_EQ(engine.RunPending(), 3u);

  for (size_t i = 0; i < futures.size(); ++i) {
    const EngineResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.inequality.ids,
              BruteForceMatches(phi, MakeQuery(cutoffs[i])));
  }
  const DebugSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.counters.sharded_queries, 3u);
  EXPECT_EQ(snapshot.shard_fanout.count(), 3u);
}

TEST_F(EngineTest, UnknownTargetReturnsNotFound) {
  Engine engine(&catalog_);
  EngineRequest request;
  request.target = "nope";
  request.query = MakeQuery();
  auto f = engine.Submit(std::move(request));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->get().status.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, FullQueueShedsWithResourceExhausted) {
  // 0 workers: nothing consumes the queue until we say so, which makes
  // the shedding deterministic.
  EngineOptions options;
  options.num_workers = 0;
  options.queue_capacity = 2;
  Engine engine(&catalog_, options);

  EngineRequest request;
  request.target = "main";
  request.query = MakeQuery();
  auto f1 = engine.Submit(request);
  auto f2 = engine.Submit(request);
  auto f3 = engine.Submit(request);  // must fail fast, not block
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_FALSE(f3.ok());
  EXPECT_EQ(f3.status().code(), StatusCode::kResourceExhausted);

  const DebugSnapshot before = engine.Snapshot();
  EXPECT_EQ(before.counters.submitted, 3u);
  EXPECT_EQ(before.counters.admitted, 2u);
  EXPECT_EQ(before.counters.rejected_queue_full, 1u);
  EXPECT_EQ(before.queue_depth, 2u);

  EXPECT_EQ(engine.RunPending(), 2u);
  EXPECT_TRUE(f1->get().status.ok());
  EXPECT_TRUE(f2->get().status.ok());
  // Capacity freed: admission works again.
  auto f4 = engine.Submit(request);
  ASSERT_TRUE(f4.ok());
  engine.Drain();
  EXPECT_TRUE(f4->get().status.ok());
}

TEST_F(EngineTest, ExpiredDeadlineShortCircuitsExecution) {
  EngineOptions options;
  options.num_workers = 0;
  Engine engine(&catalog_, options);

  EngineRequest request;
  request.target = "main";
  request.query = MakeQuery();
  request.deadline = Deadline::After(0.0);
  auto f = engine.Submit(std::move(request));
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(engine.RunPending(), 1u);
  const EngineResponse response = f->get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.inequality.ids.empty());
  EXPECT_EQ(engine.Snapshot().counters.deadline_exceeded, 1u);
}

TEST_F(EngineTest, SubmitAfterDrainReturnsUnavailable) {
  Engine engine(&catalog_);
  engine.Drain();
  EngineRequest request;
  request.target = "main";
  request.query = MakeQuery();
  auto f = engine.Submit(std::move(request));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.Snapshot().counters.rejected_draining, 1u);
}

TEST_F(EngineTest, DrainAnswersEveryQueuedRequest) {
  EngineOptions options;
  options.num_workers = 0;
  options.queue_capacity = 64;
  Engine engine(&catalog_, options);

  std::vector<std::future<EngineResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    EngineRequest request;
    request.target = "main";
    request.query = MakeQuery(50.0 + 10.0 * i);
    auto f = engine.Submit(std::move(request));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  engine.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
}

TEST_F(EngineTest, SnapshotAccountsForEveryAdmittedRequest) {
  EngineOptions options;
  options.num_workers = 2;
  Engine engine(&catalog_, options);

  constexpr int kRequests = 64;
  std::vector<std::future<EngineResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    EngineRequest request;
    request.target = i % 8 == 0 ? "missing" : "main";
    request.query = MakeQuery(40.0 + i);
    // Offset by one so the expired-deadline requests never coincide with
    // the missing-target ones: each lands in exactly one counter.
    if (i % 16 == 1) request.deadline = Deadline::After(0.0);
    auto f = engine.Submit(std::move(request));
    if (f.ok()) futures.push_back(std::move(*f));
  }
  for (auto& f : futures) f.get();
  engine.Drain();

  const DebugSnapshot snapshot = engine.Snapshot();
  const EngineCounters& c = snapshot.counters;
  // Conservation laws: every submit is admitted or rejected; every
  // admitted request finished in exactly one completion bucket.
  EXPECT_EQ(c.submitted,
            c.admitted + c.rejected_queue_full + c.rejected_draining);
  EXPECT_EQ(c.admitted, c.completed_ok + c.deadline_exceeded + c.failed);
  EXPECT_EQ(c.admitted, static_cast<uint64_t>(futures.size()));
  EXPECT_GT(c.deadline_exceeded, 0u);
  EXPECT_GT(c.failed, 0u);  // the "missing" targets
  // Both histograms saw every admitted request.
  EXPECT_EQ(snapshot.latency_millis.count(), c.admitted);
  EXPECT_EQ(snapshot.queue_wait_millis.count(), c.admitted);
  EXPECT_EQ(snapshot.queue_depth, 0u);
  EXPECT_EQ(snapshot.in_flight, 0u);
  EXPECT_TRUE(snapshot.draining);

  const std::string rendered = snapshot.ToString();
  EXPECT_NE(rendered.find("admitted"), std::string::npos);
  EXPECT_NE(rendered.find("latency_p99_ms"), std::string::npos);
}

TEST_F(EngineTest, PoppedInequalitiesAnswerLikeDirectCalls) {
  // 0 workers + RunPending: one deterministic pop. Five inequality
  // requests against "main" (3 le + 2 ge) plus one top-k run one after
  // the other, each answered as a direct call answers it.
  EngineOptions options;
  options.num_workers = 0;
  options.queue_capacity = 16;
  Engine engine(&catalog_, options);

  std::vector<std::future<EngineResponse>> futures;
  std::vector<EngineRequest> requests;
  for (int i = 0; i < 5; ++i) {
    EngineRequest request;
    request.target = "main";
    request.query = MakeQuery(80.0 + 20.0 * i);
    if (i >= 3) request.query.cmp = Comparison::kGreaterEqual;
    requests.push_back(request);
    auto f = engine.Submit(std::move(request));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  EngineRequest topk;
  topk.target = "main";
  topk.kind = QueryKind::kTopK;
  topk.query = MakeQuery();
  topk.k = 4;
  auto ftopk = engine.Submit(std::move(topk));
  ASSERT_TRUE(ftopk.ok());

  EXPECT_EQ(engine.RunPending(), 6u);

  // Every answer is bit-identical to a direct call.
  const Catalog::SetPtr set = catalog_.Find("main");
  for (size_t i = 0; i < futures.size(); ++i) {
    const EngineResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const auto serial =
        set->Inequality(requests[i].query, Deadline::Infinite());
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(response.inequality.ids, serial->ids) << i;
    EXPECT_GE(response.execute_millis, 0.0);
  }
  EXPECT_EQ(ftopk->get().topk.neighbors.size(), 4u);

  const DebugSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.counters.completed_ok, 6u);
  EXPECT_EQ(snapshot.latency_millis.count(), 6u);
  EXPECT_EQ(snapshot.ToString().find("batch_occupancy"), std::string::npos);
}

TEST_F(EngineTest, PoppedRequestsHandleNotFoundAndExpiredDeadlines) {
  EngineOptions options;
  options.num_workers = 0;
  Engine engine(&catalog_, options);

  // One pop: two against "missing" (both NotFound) and two against
  // "main" (one live, one with a pre-expired deadline).
  std::vector<std::future<EngineResponse>> futures;
  for (int i = 0; i < 2; ++i) {
    EngineRequest request;
    request.target = "missing";
    request.query = MakeQuery();
    auto f = engine.Submit(std::move(request));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  for (int i = 0; i < 2; ++i) {
    EngineRequest request;
    request.target = "main";
    request.query = MakeQuery(100.0 + i);
    if (i == 1) request.deadline = Deadline::After(0.0);
    auto f = engine.Submit(std::move(request));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(engine.RunPending(), 4u);

  EXPECT_EQ(futures[0].get().status.code(), StatusCode::kNotFound);
  EXPECT_EQ(futures[1].get().status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(futures[2].get().status.ok());
  EXPECT_EQ(futures[3].get().status.code(), StatusCode::kDeadlineExceeded);

  const DebugSnapshot snapshot = engine.Snapshot();
  const EngineCounters& c = snapshot.counters;
  EXPECT_EQ(c.admitted, c.completed_ok + c.deadline_exceeded + c.failed);
  EXPECT_EQ(c.completed_ok, 1u);
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.failed, 2u);
}

TEST_F(EngineTest, WrongParameterCountIsInvalidArgumentOnEveryTarget) {
  // A query with fewer parameters than the indexed function has no index
  // that can serve it, so it falls to the scan fallback — which must
  // answer InvalidArgument, not abort the serving process. Checked for
  // every read kind and for two inequalities popped together, on a
  // monolithic, a sharded and an ingest-managed target.
  EngineOptions options;
  options.num_workers = 0;  // RunPending drives each batch
  Engine engine(&catalog_, options);
  ShardedIndexSetOptions sharded_options;
  sharded_options.shards = 2;
  sharded_options.min_rows_per_shard = 1;
  ASSERT_TRUE(engine
                  .BuildAndInstallSharded(
                      "sharded", RandomPhi(400, 3, -20.0, 80.0, 36),
                      {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}},
                      sharded_options)
                  .ok());
  catalog_.Install("live", MakeSet(37));
  IngestOptions ingest_options;
  ingest_options.merge_threshold = 1 << 20;  // keep the row in the delta
  ingest_options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog_, ingest_options);
  ASSERT_TRUE(manager.Manage("live").ok());
  ASSERT_TRUE(manager.Append("live", {1.0, -2.0, 3.0}).ok());
  engine.AttachIngest(&manager);

  ScalarProductQuery short_query;
  short_query.a = {1.0, 1.0};
  short_query.b = 10.0;
  short_query.cmp = Comparison::kLessEqual;
  for (const std::string target : {"main", "sharded", "live"}) {
    std::vector<std::future<EngineResponse>> singles;
    for (const QueryKind kind : {QueryKind::kInequality, QueryKind::kTopK,
                                 QueryKind::kCount, QueryKind::kAggregate}) {
      EngineRequest request;
      request.target = target;
      request.kind = kind;
      request.query = short_query;
      request.k = 3;
      auto f = engine.Submit(std::move(request));
      ASSERT_TRUE(f.ok());
      singles.push_back(std::move(*f));
    }
    EXPECT_EQ(engine.RunPending(), 4u);
    for (size_t i = 0; i < singles.size(); ++i) {
      EXPECT_EQ(singles[i].get().status.code(), StatusCode::kInvalidArgument)
          << target << " kind " << i;
    }

    // Popped together: the bad request fails alone, its well-formed
    // neighbor is answered.
    std::vector<std::future<EngineResponse>> grouped;
    for (const ScalarProductQuery& q : {short_query, MakeQuery()}) {
      EngineRequest request;
      request.target = target;
      request.query = q;
      auto f = engine.Submit(std::move(request));
      ASSERT_TRUE(f.ok());
      grouped.push_back(std::move(*f));
    }
    EXPECT_EQ(engine.RunPending(), 2u);
    EXPECT_EQ(grouped[0].get().status.code(), StatusCode::kInvalidArgument)
        << target;
    EXPECT_TRUE(grouped[1].get().status.ok()) << target;
  }
  manager.Stop();
}

TEST_F(EngineTest, WorkerPoolServesConcurrentLoad) {
  EngineOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  Engine engine(&catalog_, options);

  std::vector<std::future<EngineResponse>> futures;
  for (int i = 0; i < 200; ++i) {
    EngineRequest request;
    request.target = "main";
    request.kind = i % 2 == 0 ? QueryKind::kInequality : QueryKind::kTopK;
    request.query = MakeQuery(30.0 + i);
    request.k = 3;
    auto f = engine.Submit(std::move(request));
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  size_t ok = 0;
  for (auto& f : futures) {
    if (f.get().status.ok()) ++ok;
  }
  EXPECT_EQ(ok, futures.size());
  engine.Drain();
  EXPECT_EQ(engine.Snapshot().counters.completed_ok, futures.size());
}

}  // namespace
}  // namespace planar
