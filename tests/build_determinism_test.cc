// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Parallel index construction must be invisible in the result: building
// the same data with build_threads 1, 2, and 8 — at the set level and at
// the per-index level — must produce identical in-memory indices and
// byte-identical serialized v2 snapshots (equal stored CRCs included).

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_set.h"
#include "core/serialize.h"
#include "tests/test_util.h"

namespace planar {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

// The stored checksum lives right after the 8-byte magic.
uint32_t StoredCrc(const std::vector<unsigned char>& blob) {
  EXPECT_GE(blob.size(), 12u);
  uint32_t crc = 0;
  std::memcpy(&crc, blob.data() + 8, sizeof(crc));
  return crc;
}

// Builds over enough rows to cross both parallel cutoffs
// (kParallelBuildMinRows and kParallelSortMinEntries), so the sharded
// key-computation and parallel-sort paths actually run at threads > 1.
PlanarIndexSet BuildSet(size_t set_threads, size_t index_threads) {
  PhiMatrix phi = RandomPhi(20'000, 3, 1.0, 100.0, 91);
  const std::vector<ParameterDomain> domains = {
      {1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
  IndexSetOptions options;
  options.budget = 5;
  options.seed = 92;
  options.build_threads = set_threads;
  options.index_options.build_threads = index_threads;
  auto set = PlanarIndexSet::Build(std::move(phi), domains, options);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

void ExpectIdenticalIndices(const PlanarIndexSet& a, const PlanarIndexSet& b) {
  ASSERT_EQ(a.num_indices(), b.num_indices());
  for (size_t i = 0; i < a.num_indices(); ++i) {
    ASSERT_EQ(a.index(i).size(), b.index(i).size());
    EXPECT_EQ(a.index(i).normal(), b.index(i).normal()) << "index " << i;
    std::vector<uint32_t> ids_a;
    std::vector<uint32_t> ids_b;
    a.index(i).CollectRange(0, a.index(i).size(), &ids_a);
    b.index(i).CollectRange(0, b.index(i).size(), &ids_b);
    EXPECT_EQ(ids_a, ids_b) << "rank order differs in index " << i;
    for (size_t rank = 0; rank < a.index(i).size(); ++rank) {
      ASSERT_EQ(a.index(i).RankKeys()[rank], b.index(i).RankKeys()[rank])
          << "key at rank " << rank << " in index " << i;
    }
  }
}

TEST(BuildDeterminismTest, SetLevelThreadsSerializeIdentically) {
  std::vector<std::vector<unsigned char>> blobs;
  std::vector<PlanarIndexSet> sets;
  for (size_t threads : {1u, 2u, 8u}) {
    sets.push_back(BuildSet(threads, 1));
    const std::string path =
        TempPath("det_set_t" + std::to_string(threads) + ".planar");
    ASSERT_TRUE(SaveIndexSet(sets.back(), path).ok());
    blobs.push_back(ReadFileBytes(path));
  }
  for (size_t i = 1; i < blobs.size(); ++i) {
    EXPECT_EQ(StoredCrc(blobs[i]), StoredCrc(blobs[0]));
    ASSERT_EQ(blobs[i].size(), blobs[0].size());
    EXPECT_TRUE(blobs[i] == blobs[0]) << "blob " << i << " differs";
    ExpectIdenticalIndices(sets[i], sets[0]);
  }
}

TEST(BuildDeterminismTest, IndexLevelThreadsSerializeIdentically) {
  std::vector<std::vector<unsigned char>> blobs;
  std::vector<PlanarIndexSet> sets;
  for (size_t threads : {1u, 2u, 8u}) {
    sets.push_back(BuildSet(1, threads));
    const std::string path =
        TempPath("det_idx_t" + std::to_string(threads) + ".planar");
    ASSERT_TRUE(SaveIndexSet(sets.back(), path).ok());
    blobs.push_back(ReadFileBytes(path));
  }
  for (size_t i = 1; i < blobs.size(); ++i) {
    EXPECT_EQ(StoredCrc(blobs[i]), StoredCrc(blobs[0]));
    ASSERT_EQ(blobs[i].size(), blobs[0].size());
    EXPECT_TRUE(blobs[i] == blobs[0]) << "blob " << i << " differs";
    ExpectIdenticalIndices(sets[i], sets[0]);
  }
}

TEST(BuildDeterminismTest, ParallelBuildAnswersMatchSerial) {
  const PlanarIndexSet serial = BuildSet(1, 1);
  const PlanarIndexSet parallel = BuildSet(8, 1);
  const ScalarProductQuery q{{2.0, -1.0, 4.0}, 350.0,
                             Comparison::kLessEqual};
  const InequalityResult rs = serial.Inequality(q);
  const InequalityResult rp = parallel.Inequality(q);
  EXPECT_EQ(rs.ids, rp.ids);
  EXPECT_EQ(rs.stats.index_used, rp.stats.index_used);
}

TEST(BuildDeterminismTest, LoadedSnapshotSerializesBackIdentically) {
  // Round-trip: load (which itself rebuilds indices, possibly in
  // parallel via AddIndices) and re-save; the blob must not drift.
  const PlanarIndexSet set = BuildSet(2, 1);
  const std::string first = TempPath("det_roundtrip_a.planar");
  ASSERT_TRUE(SaveIndexSet(set, first).ok());
  auto loaded = LoadIndexSet(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string second = TempPath("det_roundtrip_b.planar");
  ASSERT_TRUE(SaveIndexSet(*loaded, second).ok());
  EXPECT_TRUE(ReadFileBytes(first) == ReadFileBytes(second));
}

}  // namespace
}  // namespace planar
