// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/validate.h"

#include <cmath>
#include <string>
#include <vector>

#include "geometry/vec.h"

namespace planar {

Status ValidateIndex(const PlanarIndex& index, const PhiMatrix& phi) {
  const size_t n = index.size();
  if (phi.size() != n) {
    return Status::FailedPrecondition(
        "index covers " + std::to_string(n) + " rows but the matrix has " +
        std::to_string(phi.size()));
  }
  if (phi.dim() != index.normal().size()) {
    return Status::FailedPrecondition("dimensionality mismatch");
  }
  const Translator& translator = index.translator();
  const std::vector<double>& normal = index.normal();
  const size_t d = normal.size();

  // Walk the served arrays rank by rank: the ids must be a permutation
  // of the rows, each key must match its row, and the keys must ascend.
  const uint32_t* ids = index.RankIds();
  const double* keys = index.RankKeys();
  std::vector<bool> seen(n, false);
  for (size_t r = 0; r < n; ++r) {
    const uint32_t row = ids[r];
    if (row >= n || seen[row]) {
      return Status::Internal("rank walk is not a permutation at rank " +
                              std::to_string(r));
    }
    seen[row] = true;
    const double* phi_row = phi.row(row);
    if (!translator.Covers(phi_row)) {
      return Status::Internal("row " + std::to_string(row) +
                              " escapes the translation; Rebuild() needed");
    }
    // Recompute the key independently: <c, psi(x)>.
    double key = 0.0;
    for (size_t i = 0; i < d; ++i) {
      key += normal[i] * translator.Mirror(i, phi_row[i]);
    }
    const double stored = keys[r];
    const double tolerance =
        1e-9 * (std::fabs(key) + std::fabs(stored) + 1.0);
    if (std::fabs(key - stored) > tolerance) {
      return Status::Internal("row " + std::to_string(row) +
                              " has a stale key (stored " +
                              std::to_string(stored) + ", recomputed " +
                              std::to_string(key) + ")");
    }
    if (r > 0 && keys[r - 1] > stored) {
      return Status::Internal("keys out of order at rank " +
                              std::to_string(r));
    }
  }
  return Status::OK();
}

Status ValidateIndexSet(const PlanarIndexSet& set) {
  for (size_t i = 0; i < set.num_indices(); ++i) {
    const Status status = ValidateIndex(set.index(i), set.phi());
    if (!status.ok()) {
      return Status(status.code(),
                    "index " + std::to_string(i) + ": " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace planar
