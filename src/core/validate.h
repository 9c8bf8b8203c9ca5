// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Self-checks for index structures: recompute every key from the phi
// matrix, confirm order and translation coverage, and cross-check rank
// arithmetic. Used by tests, the CLI, and any deployment that wants a
// consistency audit after crash recovery or bulk maintenance.

#ifndef PLANAR_CORE_VALIDATE_H_
#define PLANAR_CORE_VALIDATE_H_

#include "common/status.h"
#include "core/index_set.h"
#include "core/planar_index.h"
#include "core/row_matrix.h"

namespace planar {

/// Exhaustively audits one index against its backing matrix by walking
/// the arrays that answer queries (RankKeys/RankIds) rank by rank: each
/// key recomputed from its row, keys ascending, ids a permutation of the
/// rows, and translation coverage of every row. O(n). Returns the first
/// violation found.
Status ValidateIndex(const PlanarIndex& index, const PhiMatrix& phi);

/// Audits every index of a set against the owned matrix.
Status ValidateIndexSet(const PlanarIndexSet& set);

}  // namespace planar

#endif  // PLANAR_CORE_VALIDATE_H_
