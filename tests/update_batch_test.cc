// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// UpdateBatch / AppendBatch edge cases the ingest merge path leans on:
// the empty batch, a batch larger than the existing array, all-duplicate
// keys, and interleaved append-then-update — each checked against a
// from-scratch Rebuild (identical ranks and keys) and, at the set level,
// against byte-identical serialization of a freshly built set.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/planar_index.h"
#include "core/serialize.h"
#include "tests/test_util.h"

namespace planar {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Ranks, ids, and keys of the maintained index must match what a full
// Rebuild over the same matrix produces.
void ExpectMatchesRebuild(PlanarIndex* index) {
  std::vector<uint32_t> maintained_ids;
  index->CollectRange(0, index->size(), &maintained_ids);
  std::vector<double> maintained_keys(maintained_ids.size());
  for (size_t r = 0; r < maintained_ids.size(); ++r) {
    maintained_keys[r] = index->RankKeys()[r];
  }
  index->Rebuild();
  std::vector<uint32_t> rebuilt_ids;
  index->CollectRange(0, index->size(), &rebuilt_ids);
  ASSERT_EQ(maintained_ids.size(), rebuilt_ids.size());
  EXPECT_EQ(maintained_ids, rebuilt_ids);
  for (size_t r = 0; r < rebuilt_ids.size(); ++r) {
    EXPECT_EQ(maintained_keys[r], index->RankKeys()[r]) << "rank " << r;
  }
}

TEST(UpdateBatchEdgeTest, EmptyBatchIsANoOp) {
  PhiMatrix phi = RandomPhi(64, 2, 1.0, 50.0, 91);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0});
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->UpdateBatch({}));
  ASSERT_TRUE(index->AppendBatch(static_cast<uint32_t>(phi.size()), 0));
  EXPECT_EQ(index->size(), 64u);
  ExpectMatchesRebuild(&*index);
}

// A batch with more entries than the array holds (every row touched,
// many more than once): the compact-then-merge path must still agree
// with a rebuild.
TEST(UpdateBatchEdgeTest, BatchLargerThanExistingArray) {
  PhiMatrix phi = RandomPhi(40, 2, 1.0, 50.0, 92);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  Rng rng(93);
  std::vector<uint32_t> rows;
  std::vector<double> row(2);
  for (int i = 0; i < 120; ++i) {  // 3x the array size
    const uint32_t target = static_cast<uint32_t>(rng.UniformInt(40));
    for (double& v : row) v = rng.Uniform(1.0, 50.0);
    phi.SetRow(target, row.data());
    rows.push_back(target);
  }
  ASSERT_TRUE(index->UpdateBatch(rows));
  ExpectMatchesRebuild(&*index);
}

// Every row carries the same values, so every key collides and the
// backward merge runs entirely on the (key, id) tie-break.
TEST(UpdateBatchEdgeTest, AllDuplicateKeys) {
  PhiMatrix phi(2);
  for (int i = 0; i < 50; ++i) phi.AppendRow({4.0, 9.0});
  auto index = PlanarIndex::BuildFirstOctant(&phi, {2.0, 1.0});
  ASSERT_TRUE(index.ok());
  std::vector<uint32_t> rows;
  const double same[] = {4.0, 9.0};
  for (uint32_t target : {3u, 17u, 17u, 41u, 0u, 49u}) {
    phi.SetRow(target, same);
    rows.push_back(target);
  }
  ASSERT_TRUE(index->UpdateBatch(rows));
  ExpectMatchesRebuild(&*index);

  // Appended duplicates collide with all existing keys too.
  const uint32_t first = static_cast<uint32_t>(phi.size());
  for (int i = 0; i < 30; ++i) phi.AppendRow({4.0, 9.0});
  ASSERT_TRUE(index->AppendBatch(first, 30));
  ExpectMatchesRebuild(&*index);
}

TEST(UpdateBatchEdgeTest, InterleavedAppendThenUpdate) {
  PhiMatrix phi = RandomPhi(80, 3, 1.0, 40.0, 94);
  auto index =
      PlanarIndex::BuildFirstOctant(&phi, {1.0, 2.0, 1.0});
  ASSERT_TRUE(index.ok());
  Rng rng(95);
  std::vector<double> row(3);
  for (int round = 0; round < 4; ++round) {
    // Append a small batch...
    const uint32_t first = static_cast<uint32_t>(phi.size());
    const size_t appended = 10 + round * 5;
    for (size_t i = 0; i < appended; ++i) {
      for (double& v : row) v = rng.Uniform(1.0, 40.0);
      phi.AppendRow(row);
    }
    ASSERT_TRUE(index->AppendBatch(first, appended));
    // ...then update a mix of old and freshly appended rows.
    std::vector<uint32_t> rows;
    for (int i = 0; i < 25; ++i) {
      const uint32_t target =
          static_cast<uint32_t>(rng.UniformInt(phi.size()));
      for (double& v : row) v = rng.Uniform(1.0, 40.0);
      phi.SetRow(target, row.data());
      rows.push_back(target);
    }
    ASSERT_TRUE(index->UpdateBatch(rows));
  }
  ExpectMatchesRebuild(&*index);

  const ScalarProductQuery q{{1.0, 2.0, 3.0}, 180.0, Comparison::kLessEqual};
  EXPECT_EQ(Sorted(index->Inequality(q)->ids), BruteForceMatches(phi, q));
}

// Set level: a set maintained through AppendRows must serialize to the
// exact bytes of a set built from scratch over the final matrix — the
// invariant the ingest merge's install path rests on.
TEST(UpdateBatchEdgeTest, AppendRowsSerializesIdenticallyToFreshBuild) {
  const std::vector<ParameterDomain> domains = {
      {1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
  IndexSetOptions options;
  options.budget = 6;

  PhiMatrix initial = RandomPhi(300, 3, -20.0, 80.0, 96);
  PhiMatrix extra = RandomPhi(150, 3, -20.0, 80.0, 97);
  PhiMatrix final_phi(3);
  for (size_t i = 0; i < initial.size(); ++i) final_phi.AppendRow(initial.row(i));
  for (size_t i = 0; i < extra.size(); ++i) final_phi.AppendRow(extra.row(i));

  auto maintained = PlanarIndexSet::Build(std::move(initial), domains, options);
  ASSERT_TRUE(maintained.ok());
  ASSERT_TRUE(maintained->AppendRows(extra.data(), extra.size()).ok());

  auto fresh = PlanarIndexSet::Build(std::move(final_phi), domains, options);
  ASSERT_TRUE(fresh.ok());

  const std::string maintained_path = TempPath("maintained.planar");
  const std::string fresh_path = TempPath("fresh.planar");
  ASSERT_TRUE(SaveIndexSet(*maintained, maintained_path).ok());
  ASSERT_TRUE(SaveIndexSet(*fresh, fresh_path).ok());
  EXPECT_EQ(FileBytes(maintained_path), FileBytes(fresh_path));
  std::remove(maintained_path.c_str());
  std::remove(fresh_path.c_str());

  // And the answers agree, not just the bytes.
  Rng rng(98);
  for (int trial = 0; trial < 10; ++trial) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    q.b = rng.Uniform(-200, 400);
    q.cmp =
        trial % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
    EXPECT_EQ(Sorted(maintained->Inequality(q).ids),
              Sorted(fresh->Inequality(q).ids))
        << trial;
  }
}

// Clone shares nothing: maintenance on the clone leaves the original
// byte-for-byte intact (the MVCC snapshot step of the merge).
TEST(UpdateBatchEdgeTest, CloneIsolatesMaintenanceFromOriginal) {
  const std::vector<ParameterDomain> domains = {{1.0, 6.0}, {1.0, 6.0}};
  IndexSetOptions options;
  options.budget = 4;
  PhiMatrix phi = RandomPhi(200, 2, 1.0, 60.0, 99);
  auto original = PlanarIndexSet::Build(std::move(phi), domains, options);
  ASSERT_TRUE(original.ok());

  const std::string before_path = TempPath("clone_before.planar");
  ASSERT_TRUE(SaveIndexSet(*original, before_path).ok());
  const std::string before = FileBytes(before_path);

  PlanarIndexSet clone = original->Clone();
  PhiMatrix extra = RandomPhi(80, 2, 1.0, 60.0, 100);
  ASSERT_TRUE(clone.AppendRows(extra.data(), extra.size()).ok());
  EXPECT_EQ(clone.size(), 280u);
  EXPECT_EQ(original->size(), 200u);

  const std::string after_path = TempPath("clone_after.planar");
  ASSERT_TRUE(SaveIndexSet(*original, after_path).ok());
  EXPECT_EQ(FileBytes(after_path), before);
  std::remove(before_path.c_str());
  std::remove(after_path.c_str());
}

}  // namespace
}  // namespace planar
