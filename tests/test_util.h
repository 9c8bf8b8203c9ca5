// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Shared helpers for the core test suites.

#ifndef PLANAR_TESTS_TEST_UTIL_H_
#define PLANAR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/query.h"
#include "core/row_matrix.h"
#include "core/sharded.h"

namespace planar {

/// A phi matrix with values uniform in [lo, hi] per axis.
inline PhiMatrix RandomPhi(size_t n, size_t dim, double lo, double hi,
                           uint64_t seed) {
  Rng rng(seed);
  PhiMatrix phi(dim);
  phi.Reserve(n);
  std::vector<double> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) row[j] = rng.Uniform(lo, hi);
    phi.AppendRow(row);
  }
  return phi;
}

/// Sorted copy of an id list (index answers come in unspecified order).
inline std::vector<uint32_t> Sorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The part-order inequality answer of row-range shards (core/sharded.h):
/// every shard's own answer, rebased by its row offset, concatenated in
/// shard order.
inline std::vector<uint32_t> ShardOrderIds(const ShardedIndexSet& sharded,
                                           const ScalarProductQuery& q) {
  std::vector<uint32_t> ids;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    for (const uint32_t id : sharded.shard(s).Inequality(q).ids) {
      ids.push_back(sharded.shard_offset(s) + id);
    }
  }
  return ids;
}

/// Brute-force reference answer for an inequality query.
inline std::vector<uint32_t> BruteForceMatches(const PhiMatrix& phi,
                                               const ScalarProductQuery& q) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < phi.size(); ++i) {
    if (q.Matches(phi.row(i))) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

}  // namespace planar

#endif  // PLANAR_TESTS_TEST_UTIL_H_
