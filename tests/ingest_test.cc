// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Ingest subsystem tests: manage/append/flush lifecycle, delta-overlay
// reads on the pinned OverlaySet (every read kind), admission control,
// engine integration (kAppend requests, every read kind through the
// engine, snapshot gauges), and the randomized
// bit-identity guarantee — queries through the ingest path answer
// exactly like a serial quiesced from-scratch build over the same rows,
// before, during, and after background merges.

#include "ingest/ingest.h"

#include <future>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/scan.h"
#include "engine/engine.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr char kTarget[] = "main";

std::vector<ParameterDomain> Domains() {
  return {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
}

IndexSetOptions SmallBudget() {
  IndexSetOptions options;
  options.budget = 5;
  return options;
}

// Builds an n-row set, installs it as kTarget, and mirrors its rows into
// `*all` so tests can grow a quiesced reference alongside the ingest.
void InstallBase(Catalog* catalog, size_t n, uint64_t seed, PhiMatrix* all) {
  PhiMatrix phi = RandomPhi(n, 3, -20.0, 80.0, seed);
  if (all != nullptr) {
    for (size_t i = 0; i < phi.size(); ++i) all->AppendRow(phi.row(i));
  }
  auto set = PlanarIndexSet::Build(std::move(phi), Domains(), SmallBudget());
  PLANAR_CHECK(set.ok());
  catalog->Install(kTarget, std::move(set).value());
}

std::vector<double> RandomRows(size_t count, Rng* rng) {
  std::vector<double> rows(count * 3);
  for (double& v : rows) v = rng->Uniform(-20.0, 80.0);
  return rows;
}

ScalarProductQuery RandomQuery(Rng* rng) {
  ScalarProductQuery q;
  q.a = {rng->Uniform(1, 6), -rng->Uniform(1, 6), rng->Uniform(1, 6)};
  q.b = rng->Uniform(-200, 400);
  q.cmp = rng->UniformInt(2) == 0 ? Comparison::kLessEqual
                                  : Comparison::kGreaterEqual;
  return q;
}

// The quiesced reference: a from-scratch build over every row appended
// so far. Same domains, options, and seed as the managed set, so the
// sampled index definitions are identical.
PlanarIndexSet FreshBuild(const PhiMatrix& all) {
  PhiMatrix copy(all);
  auto set = PlanarIndexSet::Build(std::move(copy), Domains(), SmallBudget());
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

TEST(IngestManageTest, ValidatesTarget) {
  Catalog catalog;
  IngestManager manager(&catalog);
  EXPECT_EQ(manager.Manage("absent").code(), StatusCode::kNotFound);

  InstallBase(&catalog, 100, 8, nullptr);
  ASSERT_TRUE(manager.Manage(kTarget).ok());
  EXPECT_NE(manager.Pin(kTarget), nullptr);
  // Double-manage is refused.
  EXPECT_EQ(manager.Manage(kTarget).code(), StatusCode::kFailedPrecondition);
}

TEST(IngestOverlayTest, InequalitySeesUnmergedRows) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 400, 9, &all);
  IngestOptions options;
  options.merge_threshold = 1 << 20;  // never merge in this test
  options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(10);
  const std::vector<double> rows = RandomRows(150, &rng);
  auto first = manager.Append(kTarget, rows);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 400u);  // ids continue past the base
  for (size_t i = 0; i < 150; ++i) all.AppendRow(rows.data() + i * 3);

  for (int trial = 0; trial < 20; ++trial) {
    const ScalarProductQuery q = RandomQuery(&rng);
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    ASSERT_NE(view, nullptr);
    const Result<InequalityResult> got =
        view->Inequality(q, Deadline::Infinite());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->stats.num_points, 550u);
    EXPECT_EQ(Sorted(got->ids), BruteForceMatches(all, q)) << trial;
  }
}

TEST(IngestOverlayTest, TopKMatchesQuiescedRebuild) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 300, 11, &all);
  IngestOptions options;
  options.merge_threshold = 1 << 20;
  options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(12);
  const std::vector<double> rows = RandomRows(120, &rng);
  ASSERT_TRUE(manager.Append(kTarget, rows).ok());
  for (size_t i = 0; i < 120; ++i) all.AppendRow(rows.data() + i * 3);
  const PlanarIndexSet reference = FreshBuild(all);

  // The last trial's k exceeds the row count: every match comes back,
  // and the overlay merge reserves only what it holds.
  for (int trial = 0; trial < 16; ++trial) {
    const ScalarProductQuery q = RandomQuery(&rng);
    const size_t k = trial == 15 ? size_t{1} << 62 : 1 + rng.UniformInt(20);
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    ASSERT_NE(view, nullptr);
    const Result<TopKResult> got = view->TopK(q, k, Deadline::Infinite());
    ASSERT_TRUE(got.ok());
    auto want = reference.TopK(q, k);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->neighbors.size(), want->neighbors.size()) << trial;
    for (size_t i = 0; i < want->neighbors.size(); ++i) {
      EXPECT_EQ(got->neighbors[i].id, want->neighbors[i].id) << trial;
      EXPECT_DOUBLE_EQ(got->neighbors[i].distance,
                       want->neighbors[i].distance)
          << trial;
    }
  }
}

TEST(IngestOverlayTest, CountOverlayIsBitExactAcrossMerge) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 400, 15, &all);
  IngestOptions options;
  options.merge_threshold = 1 << 20;  // merge only on Flush
  options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(16);
  const std::vector<double> rows = RandomRows(130, &rng);
  ASSERT_TRUE(manager.Append(kTarget, rows).ok());
  for (size_t i = 0; i < 130; ++i) all.AppendRow(rows.data() + i * 3);

  std::vector<ScalarProductQuery> queries;
  for (int i = 0; i < 20; ++i) queries.push_back(RandomQuery(&rng));

  // Unmerged: base bounds plus an exact delta scan-count.
  for (const ScalarProductQuery& q : queries) {
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    ASSERT_NE(view, nullptr);
    const Result<CountResult> got =
        view->CountInequality(q, CountTolerance(), Deadline::Infinite());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->exact);
    EXPECT_EQ(got->estimate, BruteForceMatches(all, q).size());
    EXPECT_EQ(got->stats.num_points, 530u);
  }
  // Quiesced: after Flush the same counts come from the merged base.
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  for (const ScalarProductQuery& q : queries) {
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    ASSERT_NE(view, nullptr);
    const Result<CountResult> got =
        view->CountInequality(q, CountTolerance(), Deadline::Infinite());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->estimate, BruteForceMatches(all, q).size());
  }
  manager.Stop();
}

TEST(IngestOverlayTest, AggregateOverlayMatchesBruteForce) {
  // Integer-valued rows so payload sums are exact in double arithmetic.
  Catalog catalog;
  PhiMatrix all(3);
  Rng rng(17);
  {
    PhiMatrix phi(3);
    phi.Reserve(350);
    for (size_t i = 0; i < 350; ++i) {
      const std::vector<double> row = {
          static_cast<double>(1 + rng.NextUint64() % 60),
          -static_cast<double>(1 + rng.NextUint64() % 60),
          static_cast<double>(1 + rng.NextUint64() % 60)};
      phi.AppendRow(row);
      all.AppendRow(row);
    }
    IndexSetOptions with_payload = SmallBudget();
    with_payload.index_options.payload_column = 2;
    auto set =
        PlanarIndexSet::Build(std::move(phi), Domains(), with_payload);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    catalog.Install(kTarget, std::move(set).value());
  }
  IngestOptions options;
  options.merge_threshold = 1 << 20;
  options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  std::vector<double> rows(120 * 3);
  for (size_t i = 0; i < rows.size(); i += 3) {
    rows[i] = static_cast<double>(1 + rng.NextUint64() % 60);
    rows[i + 1] = -static_cast<double>(1 + rng.NextUint64() % 60);
    rows[i + 2] = static_cast<double>(1 + rng.NextUint64() % 60);
  }
  ASSERT_TRUE(manager.Append(kTarget, rows).ok());
  for (size_t i = 0; i < 120; ++i) all.AppendRow(rows.data() + i * 3);

  for (int trial = 0; trial < 20; ++trial) {
    const ScalarProductQuery q = RandomQuery(&rng);
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    ASSERT_NE(view, nullptr);
    const Result<AggregateResult> got =
        view->AggregateInequality(q, CountTolerance(), Deadline::Infinite());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    double want_sum = 0.0;
    size_t want_count = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      if (q.Matches(all.row(i))) {
        want_sum += all.row(i)[2];
        ++want_count;
      }
    }
    EXPECT_TRUE(got->exact);
    EXPECT_EQ(got->sum, want_sum) << trial;
    EXPECT_EQ(got->count.estimate, want_count) << trial;
  }
  manager.Stop();
}

TEST(IngestFlushTest, FlushMergesIntoTheCatalogWithStableIds) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 250, 15, &all);
  IngestOptions options;
  options.merge_threshold = 1 << 20;  // merge only via Flush
  options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(16);
  const std::vector<double> rows = RandomRows(130, &rng);
  ASSERT_TRUE(manager.Append(kTarget, rows).ok());
  for (size_t i = 0; i < 130; ++i) all.AppendRow(rows.data() + i * 3);

  const ScalarProductQuery q = RandomQuery(&rng);
  const std::shared_ptr<const OverlaySet> before_view = manager.Pin(kTarget);
  ASSERT_NE(before_view, nullptr);
  const Result<InequalityResult> before =
      before_view->Inequality(q, Deadline::Infinite());
  ASSERT_TRUE(before.ok());

  const uint64_t version_before = catalog.version();
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  EXPECT_GT(catalog.version(), version_before);
  // The install holds every row; the delta is empty again.
  EXPECT_EQ(catalog.Find(kTarget)->size(), 380u);
  EXPECT_EQ(manager.gauges().delta_rows, 0u);
  EXPECT_EQ(manager.gauges().merges, 1u);

  // Ids are stable across the merge: the same query answers the same.
  const std::shared_ptr<const OverlaySet> after_view = manager.Pin(kTarget);
  ASSERT_NE(after_view, nullptr);
  const Result<InequalityResult> after =
      after_view->Inequality(q, Deadline::Infinite());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sorted(after->ids), Sorted(before->ids));
  EXPECT_EQ(Sorted(after->ids), BruteForceMatches(all, q));

  // A second flush with nothing appended is a no-op.
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  EXPECT_EQ(manager.gauges().merges, 1u);
}

TEST(IngestAdmissionTest, ShedsWhenDeltaIsFull) {
  Catalog catalog;
  InstallBase(&catalog, 100, 17, nullptr);
  IngestOptions options;
  options.delta_capacity = 64;
  options.merge_threshold = 64;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(18);
  // One batch larger than the whole delta: shed outright, nothing kept.
  auto shed = manager.Append(kTarget, RandomRows(65, &rng));
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // After a merge drains the delta, appends are admitted again.
  ASSERT_TRUE(manager.Append(kTarget, RandomRows(64, &rng)).ok());
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  EXPECT_TRUE(manager.Append(kTarget, RandomRows(32, &rng)).ok());

  // Malformed payloads are rejected before touching the delta.
  EXPECT_EQ(manager.Append(kTarget, {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Append(kTarget, {1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Append("absent", {1.0, 2.0, 3.0}).status().code(),
            StatusCode::kNotFound);
}

TEST(IngestStopTest, StopDrainsAndRejectsFurtherAppends) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 120, 19, &all);
  IngestOptions options;
  options.merge_threshold = 1 << 20;
  options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(20);
  const std::vector<double> rows = RandomRows(40, &rng);
  ASSERT_TRUE(manager.Append(kTarget, rows).ok());
  for (size_t i = 0; i < 40; ++i) all.AppendRow(rows.data() + i * 3);

  manager.Stop();
  // The final drain merged everything into the catalog.
  EXPECT_EQ(catalog.Find(kTarget)->size(), 160u);
  EXPECT_EQ(manager.Append(kTarget, RandomRows(1, &rng)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(manager.Manage(kTarget).code(), StatusCode::kUnavailable);
  // Reads keep serving after Stop.
  const ScalarProductQuery q = RandomQuery(&rng);
  const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
  ASSERT_NE(view, nullptr);
  const Result<InequalityResult> got =
      view->Inequality(q, Deadline::Infinite());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(got->ids), BruteForceMatches(all, q));
}

// The acceptance-criteria test: across many rounds of appends and
// background merges, every query kind answers exactly like a serial
// quiesced from-scratch build over the same rows.
TEST(IngestRandomizedTest, BitIdenticalToQuiescedRebuildAcrossMerges) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 500, 21, &all);
  IngestOptions options;
  options.merge_threshold = 96;  // small: many background merges
  options.delta_capacity = 4096;
  IngestManager manager(&catalog, options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  Rng rng(22);
  for (int round = 0; round < 12; ++round) {
    const size_t count = 40 + rng.UniformInt(120);
    const std::vector<double> rows = RandomRows(count, &rng);
    auto first = manager.Append(kTarget, rows);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value(), all.size());  // id continuity across merges
    for (size_t i = 0; i < count; ++i) all.AppendRow(rows.data() + i * 3);
    if (round % 4 == 3) {
      ASSERT_TRUE(manager.Flush(kTarget).ok());
    }

    const PlanarIndexSet reference = FreshBuild(all);
    for (int trial = 0; trial < 4; ++trial) {
      const ScalarProductQuery q = RandomQuery(&rng);
      const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
      ASSERT_NE(view, nullptr);
      const Result<InequalityResult> got =
          view->Inequality(q, Deadline::Infinite());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(got->ids), Sorted(reference.Inequality(q).ids))
          << "round " << round << " trial " << trial;

      const size_t k = 1 + rng.UniformInt(15);
      const std::shared_ptr<const OverlaySet> topk_view = manager.Pin(kTarget);
      ASSERT_NE(topk_view, nullptr);
      const Result<TopKResult> topk =
          topk_view->TopK(q, k, Deadline::Infinite());
      ASSERT_TRUE(topk.ok());
      auto want = reference.TopK(q, k);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(topk->neighbors.size(), want->neighbors.size());
      for (size_t i = 0; i < want->neighbors.size(); ++i) {
        EXPECT_EQ(topk->neighbors[i].id, want->neighbors[i].id)
            << "round " << round << " trial " << trial << " rank " << i;
        EXPECT_DOUBLE_EQ(topk->neighbors[i].distance,
                         want->neighbors[i].distance);
      }
    }
  }
  // Quiesce completely and compare once more.
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  EXPECT_EQ(catalog.Find(kTarget)->size(), all.size());
  const PlanarIndexSet reference = FreshBuild(all);
  for (int trial = 0; trial < 10; ++trial) {
    const ScalarProductQuery q = RandomQuery(&rng);
    const std::shared_ptr<const OverlaySet> view = manager.Pin(kTarget);
    ASSERT_NE(view, nullptr);
    const Result<InequalityResult> got =
        view->Inequality(q, Deadline::Infinite());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Sorted(got->ids), Sorted(reference.Inequality(q).ids)) << trial;
  }
}

TEST(IngestEngineTest, AppendRequestsAndOverlayReadsThroughTheEngine) {
  Catalog catalog;
  PhiMatrix all(3);
  InstallBase(&catalog, 200, 23, &all);
  IngestOptions ingest_options;
  ingest_options.merge_threshold = 1 << 20;
  ingest_options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, ingest_options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());

  EngineOptions engine_options;
  engine_options.num_workers = 0;  // deterministic: RunPending drives
  Engine engine(&catalog, engine_options);
  engine.AttachIngest(&manager);

  Rng rng(24);
  const std::vector<double> rows = RandomRows(60, &rng);
  EngineRequest append;
  append.target = kTarget;
  append.kind = QueryKind::kAppend;
  append.rows = rows;
  auto append_future = engine.Submit(std::move(append));
  ASSERT_TRUE(append_future.ok());
  EXPECT_EQ(engine.RunPending(), 1u);
  EngineResponse append_response = append_future.value().get();
  ASSERT_TRUE(append_response.status.ok());
  EXPECT_EQ(append_response.first_appended_id, 200u);
  for (size_t i = 0; i < 60; ++i) all.AppendRow(rows.data() + i * 3);

  // Single query: the engine's read path consults the overlay.
  EngineRequest query;
  query.target = kTarget;
  query.kind = QueryKind::kInequality;
  query.query = RandomQuery(&rng);
  auto query_future = engine.Submit(query);
  ASSERT_TRUE(query_future.ok());
  EXPECT_EQ(engine.RunPending(), 1u);
  EngineResponse query_response = query_future.value().get();
  ASSERT_TRUE(query_response.status.ok());
  EXPECT_EQ(Sorted(query_response.inequality.ids),
            BruteForceMatches(all, query.query));

  // Four inequalities popped together: each overlays the delta too.
  std::vector<std::future<EngineResponse>> futures;
  std::vector<ScalarProductQuery> queries;
  for (int i = 0; i < 4; ++i) {
    EngineRequest grouped;
    grouped.target = kTarget;
    grouped.kind = QueryKind::kInequality;
    grouped.query = RandomQuery(&rng);
    grouped.query.cmp = Comparison::kLessEqual;
    queries.push_back(grouped.query);
    auto future = engine.Submit(std::move(grouped));
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(future).value());
  }
  EXPECT_EQ(engine.RunPending(), 4u);
  for (int i = 0; i < 4; ++i) {
    EngineResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << i;
    EXPECT_EQ(Sorted(response.inequality.ids),
              BruteForceMatches(all, queries[i]))
        << i;
  }

  // Gauges and counters flow into the snapshot.
  const DebugSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.ingest_targets, 1u);
  EXPECT_EQ(snapshot.delta_rows, 60u);
  EXPECT_EQ(snapshot.counters.appended_rows, 60u);
  EXPECT_EQ(snapshot.counters.merges, 0u);

  manager.Stop();
  EXPECT_EQ(engine.Snapshot().counters.merges, 1u);  // final drain
}

// Every read kind the engine serves on an ingest-managed target, with
// the delta unmerged, answers exactly what the same read answers after
// Flush merged the delta into the base.
TEST(IngestEngineTest, EveryReadKindOnTheOverlayMatchesTheFlushedAnswer) {
  // Integer-valued rows so payload sums are exact in double arithmetic.
  Catalog catalog;
  Rng rng(31);
  const auto integer_rows = [&rng](size_t count) {
    std::vector<double> rows(count * 3);
    for (size_t i = 0; i < rows.size(); i += 3) {
      rows[i] = static_cast<double>(1 + rng.NextUint64() % 60);
      rows[i + 1] = -static_cast<double>(1 + rng.NextUint64() % 60);
      rows[i + 2] = static_cast<double>(1 + rng.NextUint64() % 60);
    }
    return rows;
  };
  {
    const std::vector<double> base = integer_rows(300);
    PhiMatrix phi(3);
    for (size_t i = 0; i < 300; ++i) phi.AppendRow(base.data() + i * 3);
    IndexSetOptions with_payload = SmallBudget();
    with_payload.index_options.payload_column = 2;
    auto set = PlanarIndexSet::Build(std::move(phi), Domains(), with_payload);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    catalog.Install(kTarget, std::move(set).value());
  }
  IngestOptions ingest_options;
  ingest_options.merge_threshold = 1 << 20;  // merge only on Flush
  ingest_options.delta_capacity = 1 << 20;
  IngestManager manager(&catalog, ingest_options);
  ASSERT_TRUE(manager.Manage(kTarget).ok());
  ASSERT_TRUE(manager.Append(kTarget, integer_rows(90)).ok());

  EngineOptions engine_options;
  engine_options.num_workers = 0;  // deterministic: RunPending drives
  Engine engine(&catalog, engine_options);
  engine.AttachIngest(&manager);

  std::vector<ScalarProductQuery> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(RandomQuery(&rng));
  const size_t k = 7;
  // One round: per query, an inequality, a top-k, a count and an
  // aggregate, each run alone; then two same-cmp inequalities submitted
  // together, which one RunPending pops and serves one after the other.
  struct Answers {
    std::vector<EngineResponse> single;
    std::vector<EngineResponse> together;
  };
  const auto run = [&](Answers* answers) {
    for (const ScalarProductQuery& q : queries) {
      for (QueryKind kind : {QueryKind::kInequality, QueryKind::kTopK,
                             QueryKind::kCount, QueryKind::kAggregate}) {
        EngineRequest request;
        request.target = kTarget;
        request.kind = kind;
        request.query = q;
        request.k = k;
        auto future = engine.Submit(std::move(request));
        ASSERT_TRUE(future.ok());
        ASSERT_EQ(engine.RunPending(), 1u);
        answers->single.push_back(future.value().get());
        ASSERT_TRUE(answers->single.back().status.ok())
            << answers->single.back().status.ToString();
      }
    }
    std::vector<std::future<EngineResponse>> futures;
    for (int i = 0; i < 2; ++i) {
      EngineRequest request;
      request.target = kTarget;
      request.kind = QueryKind::kInequality;
      request.query = queries[static_cast<size_t>(i)];
      request.query.cmp = Comparison::kGreaterEqual;
      auto future = engine.Submit(std::move(request));
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(future).value());
    }
    ASSERT_EQ(engine.RunPending(), 2u);
    for (std::future<EngineResponse>& future : futures) {
      answers->together.push_back(future.get());
      ASSERT_TRUE(answers->together.back().status.ok());
    }
  };

  Answers overlaid;
  run(&overlaid);
  EXPECT_EQ(engine.Snapshot().delta_rows, 90u);
  ASSERT_TRUE(manager.Flush(kTarget).ok());
  EXPECT_EQ(engine.Snapshot().delta_rows, 0u);
  Answers flushed;
  run(&flushed);

  ASSERT_EQ(overlaid.single.size(), flushed.single.size());
  for (size_t i = 0; i < overlaid.single.size(); ++i) {
    const EngineResponse& got = overlaid.single[i];
    const EngineResponse& want = flushed.single[i];
    EXPECT_EQ(Sorted(got.inequality.ids), Sorted(want.inequality.ids)) << i;
    ASSERT_EQ(got.topk.neighbors.size(), want.topk.neighbors.size()) << i;
    for (size_t j = 0; j < want.topk.neighbors.size(); ++j) {
      EXPECT_EQ(got.topk.neighbors[j].id, want.topk.neighbors[j].id) << i;
      EXPECT_EQ(got.topk.neighbors[j].distance,
                want.topk.neighbors[j].distance)
          << i;
    }
    EXPECT_EQ(got.count.estimate, want.count.estimate) << i;
    EXPECT_EQ(got.count.lower, want.count.lower) << i;
    EXPECT_EQ(got.count.upper, want.count.upper) << i;
    EXPECT_EQ(got.count.exact, want.count.exact) << i;
    EXPECT_EQ(got.aggregate.sum, want.aggregate.sum) << i;
    EXPECT_EQ(got.aggregate.count.estimate, want.aggregate.count.estimate)
        << i;
  }
  ASSERT_EQ(overlaid.together.size(), 2u);
  ASSERT_EQ(flushed.together.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(Sorted(overlaid.together[i].inequality.ids),
              Sorted(flushed.together[i].inequality.ids))
        << i;
  }
  manager.Stop();
}

// A NaN or infinite value in an appended row is refused with
// kInvalidArgument and appends nothing, so the merged index keeps
// answering exactly like the scan over its rows.
TEST(IngestEngineTest, NonFiniteAppendIsRejectedAndAnswersMatchTheScan) {
  Catalog catalog;
  InstallBase(&catalog, 2000, 33, nullptr);
  IngestManager manager(&catalog);
  ASSERT_TRUE(manager.Manage(kTarget).ok());
  EngineOptions engine_options;
  engine_options.num_workers = 0;
  Engine engine(&catalog, engine_options);
  engine.AttachIngest(&manager);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> payloads = {
      {1.0, -inf, 2.0},
      {nan, 3.0, 4.0},
      {1.0, 2.0, inf},
      // A good row ahead of a bad one: the whole payload is refused.
      {1.0, 2.0, 3.0, 4.0, 5.0, nan},
  };
  for (const std::vector<double>& rows : payloads) {
    EngineRequest append;
    append.target = kTarget;
    append.kind = QueryKind::kAppend;
    append.rows = rows;
    auto future = engine.Submit(std::move(append));
    ASSERT_TRUE(future.ok());
    ASSERT_EQ(engine.RunPending(), 1u);
    EXPECT_EQ(future.value().get().status.code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(manager.gauges().delta_rows, 0u);
  ASSERT_TRUE(manager.Flush(kTarget).ok());

  const Catalog::SetPtr set = catalog.Find(kTarget);
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->size(), 2000u);
  Rng rng(34);
  for (int trial = 0; trial < 16; ++trial) {
    ScalarProductQuery q = RandomQuery(&rng);
    q.cmp = trial % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
    EXPECT_EQ(Sorted(set->Inequality(q).ids),
              Sorted(ScanInequality(set->phi(), q).ids))
        << trial;
  }
  manager.Stop();
}

TEST(IngestEngineTest, AppendWithoutBackendFailsPrecondition) {
  Catalog catalog;
  InstallBase(&catalog, 50, 25, nullptr);
  EngineOptions engine_options;
  engine_options.num_workers = 0;
  Engine engine(&catalog, engine_options);

  EngineRequest append;
  append.target = kTarget;
  append.kind = QueryKind::kAppend;
  append.rows = {1.0, 2.0, 3.0};
  auto future = engine.Submit(std::move(append));
  ASSERT_TRUE(future.ok());
  EXPECT_EQ(engine.RunPending(), 1u);
  EXPECT_EQ(future.value().get().status.code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace planar
