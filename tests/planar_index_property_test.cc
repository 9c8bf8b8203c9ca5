// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Parameterized property tests: across dimensionalities, data octants,
// query sign patterns and comparison directions, the Planar
// index must return exactly the sequential-scan answer, its directly
// accepted points must all satisfy the query, and its directly rejected
// points must all violate it (Observations 1 and 2 of the paper).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/planar_index.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace planar {
namespace {

struct PropertyParams {
  size_t dim;
  double data_lo;
  double data_hi;
  uint64_t sign_pattern;  // bit i set -> a_i negative
  Comparison cmp;
  uint64_t seed;
};

std::string ParamName(
    const ::testing::TestParamInfo<PropertyParams>& info) {
  const PropertyParams& p = info.param;
  std::string name = "d" + std::to_string(p.dim) + "_sign" +
                     std::to_string(p.sign_pattern) + "_" +
                     (p.cmp == Comparison::kLessEqual ? "le" : "ge") +
                     "_lo" + std::to_string(static_cast<int>(p.data_lo)) +
                     "_s" + std::to_string(p.seed);
  for (char& c : name) {
    if (c == '-') c = 'm';
  }
  return name;
}

class PlanarIndexPropertyTest
    : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(PlanarIndexPropertyTest, AgreesWithScanAndPrunesSoundly) {
  const PropertyParams p = GetParam();
  Rng rng(p.seed);
  const size_t n = 400;
  PhiMatrix phi = RandomPhi(n, p.dim, p.data_lo, p.data_hi, p.seed * 31 + 1);

  // Raw queries use this sign pattern; normalization flips it when b < 0,
  // so we keep an index for the pattern's octant AND its mirror and route
  // to whichever serves the normalized query (as PlanarIndexSet would).
  std::vector<double> rep(p.dim);
  std::vector<double> mirror_rep(p.dim);
  for (size_t i = 0; i < p.dim; ++i) {
    rep[i] = (p.sign_pattern >> i) & 1 ? -1.0 : 1.0;
    mirror_rep[i] = -rep[i];
  }
  const Octant octant = Octant::FromNormal(rep);
  const Octant mirror_octant = Octant::FromNormal(mirror_rep);

  for (int trial = 0; trial < 8; ++trial) {
    // Random positive mirrored-space normal.
    std::vector<double> normal(p.dim);
    for (size_t i = 0; i < p.dim; ++i) normal[i] = rng.Uniform(0.2, 5.0);
    auto index = PlanarIndex::Build(&phi, normal, octant);
    auto mirror_index = PlanarIndex::Build(&phi, normal, mirror_octant);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE(mirror_index.ok()) << mirror_index.status().ToString();

    // Random query with the sign pattern; b chosen so selectivity varies
    // (negative b exercises the constraint-flip path).
    ScalarProductQuery q;
    q.a.resize(p.dim);
    double scale = 0.0;
    for (size_t i = 0; i < p.dim; ++i) {
      q.a[i] = rep[i] * rng.Uniform(0.2, 5.0);
      scale += std::fabs(q.a[i]) * std::max(std::fabs(p.data_lo),
                                            std::fabs(p.data_hi));
    }
    q.b = rng.Uniform(-0.5, 0.5) * scale;
    q.cmp = p.cmp;

    const NormalizedQuery norm = NormalizedQuery::From(q);
    const PlanarIndex& serving =
        index->CanServe(norm) ? *index : *mirror_index;
    ASSERT_TRUE(serving.CanServe(norm)) << q.ToString();

    const std::vector<uint32_t> want = BruteForceMatches(phi, q);
    auto result = serving.Inequality(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(Sorted(result->ids), want)
        << "trial " << trial << " query " << q.ToString();

    auto iv = serving.ComputeIntervals(norm);
    ASSERT_TRUE(iv.ok());
    ASSERT_LE(iv->smaller_end, iv->larger_begin);
    // Count checks: stats partition n.
    const QueryStats& s = result->stats;
    ASSERT_EQ(s.accepted_directly + s.rejected_directly + s.verified, n);

    // Every index answer size matches brute force; also check top-k.
    const size_t k = 1 + static_cast<size_t>(rng.UniformInt(uint64_t{20}));
    auto got_topk = serving.TopK(q, k);
    auto want_topk = ScanTopK(phi, q, k);
    ASSERT_TRUE(got_topk.ok());
    ASSERT_TRUE(want_topk.ok());
    ASSERT_EQ(got_topk->neighbors.size(), want_topk->neighbors.size());
    for (size_t i = 0; i < got_topk->neighbors.size(); ++i) {
      // Distances must agree; ids may differ only under exact ties.
      ASSERT_NEAR(got_topk->neighbors[i].distance,
                  want_topk->neighbors[i].distance, 1e-9);
    }
  }
}

std::vector<PropertyParams> MakeParams() {
  std::vector<PropertyParams> params;
  uint64_t seed = 100;
  for (size_t dim : {1u, 2u, 3u, 6u}) {
    for (uint64_t sign : std::vector<uint64_t>{0u, (uint64_t{1} << dim) - 1,
                                               dim > 1 ? 1u : 0u}) {
      for (Comparison cmp :
           {Comparison::kLessEqual, Comparison::kGreaterEqual}) {
        params.push_back({dim, -10.0, 10.0, sign, cmp, seed++});
      }
    }
  }
  // Non-negative data in the first octant.
  params.push_back({3, 1.0, 100.0, 0, Comparison::kLessEqual, seed++});
  params.push_back({3, 1.0, 100.0, 0, Comparison::kLessEqual, seed++});
  params.push_back({4, -5.0, 5.0, 0b0101, Comparison::kGreaterEqual, seed++});
  // All-negative data.
  params.push_back({2, -50.0, -1.0, 0, Comparison::kLessEqual, seed++});
  params.push_back({2, -50.0, -1.0, 0b11, Comparison::kGreaterEqual, seed++});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanarIndexPropertyTest,
                         ::testing::ValuesIn(MakeParams()), ParamName);

// Duplicate keys: many points share the same scalar product value.
TEST(PlanarIndexEdgeTest, DuplicateKeysHandled) {
  PhiMatrix phi(2);
  for (int i = 0; i < 100; ++i) {
    phi.AppendRow({static_cast<double>(i % 5), static_cast<double>(i % 5)});
  }
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 1.0}, 4.0, Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->ids), BruteForceMatches(phi, q));
}

// Single point dataset.
TEST(PlanarIndexEdgeTest, SinglePoint) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {3.0, 4.0});
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  auto yes = index->Inequality(
      ScalarProductQuery{{1.0, 1.0}, 7.0, Comparison::kLessEqual});
  EXPECT_EQ(yes->ids.size(), 1u);
  auto no = index->Inequality(
      ScalarProductQuery{{1.0, 1.0}, 6.9, Comparison::kLessEqual});
  EXPECT_TRUE(no->ids.empty());
}

// b = 0 boundary with points exactly on the hyperplane.
TEST(PlanarIndexEdgeTest, PointsOnHyperplane) {
  PhiMatrix phi = RowMatrix::FromRowMajor(2, {1.0, -1.0, 2.0, -2.0, 1.0, 1.0});
  const Octant octant = Octant::FromNormal({1.0, 1.0});
  auto index = PlanarIndex::Build(&phi, {1.0, 1.0}, octant);
  ASSERT_TRUE(index.ok());
  const ScalarProductQuery q{{1.0, 1.0}, 0.0, Comparison::kLessEqual};
  auto result = index->Inequality(q);
  ASSERT_TRUE(result.ok());
  // Points (1,-1) and (2,-2) lie exactly on <a,phi> = 0 and must be
  // included under <=.
  EXPECT_EQ(Sorted(result->ids), (std::vector<uint32_t>{0, 1}));
}

// Identical coordinates in all rows: every key equal.
TEST(PlanarIndexEdgeTest, AllPointsIdentical) {
  PhiMatrix phi(2);
  for (int i = 0; i < 64; ++i) phi.AppendRow({2.0, 3.0});
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0});
  ASSERT_TRUE(index.ok());
  auto all = index->Inequality(
      ScalarProductQuery{{1.0, 1.0}, 5.0, Comparison::kLessEqual});
  EXPECT_EQ(all->ids.size(), 64u);
  auto none = index->Inequality(
      ScalarProductQuery{{1.0, 1.0}, 4.99, Comparison::kLessEqual});
  EXPECT_TRUE(none->ids.empty());
}

// Extreme query offsets select everything / nothing via pure pruning.
TEST(PlanarIndexEdgeTest, ExtremeOffsetsFullyPruned) {
  PhiMatrix phi = RandomPhi(500, 3, 1.0, 100.0, 55);
  auto index = PlanarIndex::BuildFirstOctant(&phi, {1.0, 1.0, 1.0});
  ASSERT_TRUE(index.ok());
  auto everything = index->Inequality(
      ScalarProductQuery{{1.0, 1.0, 1.0}, 1e9, Comparison::kLessEqual});
  EXPECT_EQ(everything->ids.size(), 500u);
  EXPECT_EQ(everything->stats.verified, 0u);
  EXPECT_DOUBLE_EQ(everything->stats.PruningFraction(), 1.0);
  auto nothing = index->Inequality(
      ScalarProductQuery{{1.0, 1.0, 1.0}, 0.0, Comparison::kLessEqual});
  EXPECT_TRUE(nothing->ids.empty());
  EXPECT_EQ(nothing->stats.verified, 0u);
}

}  // namespace
}  // namespace planar
