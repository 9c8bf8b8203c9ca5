// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Parallel index construction must be invisible in the result: building
// the same data with build_threads 1, 2, and 8 — at the set level, at
// the per-index level, and for every shard of a sharded set — must
// produce identical in-memory indices and byte-identical serialized v2
// snapshots (equal stored CRCs included).

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index_set.h"
#include "core/serialize.h"
#include "core/sharded.h"
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

// Enough rows to cross both parallel cutoffs (kParallelBuildMinRows and
// kParallelSortMinEntries), so the sharded key-computation and
// parallel-sort paths actually run at threads > 1.
PhiMatrix Phi() { return RandomPhi(20'000, 3, 1.0, 100.0, 91); }

std::vector<ParameterDomain> Domains() {
  return {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}};
}

IndexSetOptions SetOptions(size_t set_threads, size_t index_threads) {
  IndexSetOptions options;
  options.budget = 5;
  options.seed = 92;
  options.build_threads = set_threads;
  options.index_options.build_threads = index_threads;
  return options;
}

PlanarIndexSet BuildSet(size_t set_threads, size_t index_threads) {
  auto set = PlanarIndexSet::Build(Phi(), Domains(),
                                   SetOptions(set_threads, index_threads));
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

std::vector<unsigned char> SavedBytes(const PlanarIndexSet& set,
                                      const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveIndexSet(set, path).ok());
  return ReadFileBytes(path);
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
  // parallel via BuildEach) and re-save; the blob must not drift.
  const PlanarIndexSet set = BuildSet(2, 1);
  const std::string first = TempPath("det_roundtrip_a.planar");
  ASSERT_TRUE(SaveIndexSet(set, first).ok());
  auto loaded = LoadIndexSet(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string second = TempPath("det_roundtrip_b.planar");
  ASSERT_TRUE(SaveIndexSet(*loaded, second).ok());
  EXPECT_TRUE(ReadFileBytes(first) == ReadFileBytes(second));
}

TEST(BuildDeterminismTest, ShardedBuildSerializesIdenticallyAtEveryWidth) {
  const std::vector<unsigned char> monolithic =
      SavedBytes(BuildSet(1, 1), "det_mono.planar");
  for (size_t shards : {1u, 3u, 4u}) {
    // blobs[w][s]: shard s's snapshot built at the w-th width.
    std::vector<std::vector<std::vector<unsigned char>>> blobs;
    for (size_t width : {1u, 2u, 8u}) {
      ShardedIndexSetOptions options;
      options.shards = shards;
      options.min_rows_per_shard = 1;
      options.set_options = SetOptions(width, 1);
      auto set = ShardedIndexSet::Build(Phi(), Domains(), options);
      ASSERT_TRUE(set.ok()) << set.status().ToString();
      ASSERT_EQ(set->num_shards(), shards);
      blobs.emplace_back();
      for (size_t s = 0; s < shards; ++s) {
        const PlanarIndexSet& shard = set->shard(s);
        ASSERT_EQ(shard.num_indices(), set->shard(0).num_indices());
        for (size_t i = 0; i < shard.num_indices(); ++i) {
          EXPECT_EQ(shard.index(i).normal(), set->shard(0).index(i).normal())
              << "shard " << s << " index " << i;
        }
        blobs.back().push_back(SavedBytes(
            shard, "det_shard_s" + std::to_string(shards) + "_w" +
                       std::to_string(width) + "_" + std::to_string(s) +
                       ".planar"));
      }
    }
    for (size_t w = 1; w < blobs.size(); ++w) {
      for (size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(StoredCrc(blobs[w][s]), StoredCrc(blobs[0][s]));
        EXPECT_TRUE(blobs[w][s] == blobs[0][s])
            << shards << " shards: shard " << s << " differs at width "
            << w;
      }
    }
    // One shard holds the whole matrix: it is the monolithic set.
    if (shards == 1) {
      EXPECT_TRUE(blobs[0][0] == monolithic);
    }
  }
}

}  // namespace
}  // namespace planar
