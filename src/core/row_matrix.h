// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// RowMatrix: a dense row-major matrix of doubles with per-column bounds.
// It serves both as the raw dataset container (n points in R^d) and as
// the materialized phi matrix (n rows of phi(x) in R^d').
//
// Column bounds are maintained *grow-only*: they always contain every
// value ever stored, which keeps translation deltas (Section 4.5) sound
// under dynamic updates at the price of occasional looseness.

#ifndef PLANAR_CORE_ROW_MATRIX_H_
#define PLANAR_CORE_ROW_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "core/function.h"

namespace planar {

/// Dense row-major n x d matrix with grow-only per-column min/max.
class RowMatrix {
 public:
  /// An empty matrix with `dim` columns.
  explicit RowMatrix(size_t dim);

  /// Builds from row-major data; `values.size()` must be a multiple of
  /// `dim`.
  static RowMatrix FromRowMajor(size_t dim, std::vector<double> values);

  /// Appends one row of length dim().
  void AppendRow(const double* values);
  void AppendRow(const std::vector<double>& values);

  /// Overwrites row `i`. Column bounds are widened but never shrunk.
  void SetRow(size_t i, const double* values);

  /// Pointer to the `i`-th row (length dim()).
  const double* row(size_t i) const {
    PLANAR_DCHECK(i < rows_);
    return data_.data() + i * dim_;
  }

  /// Base pointer of the row-major storage (row i starts at
  /// data() + i * dim()). For the batched kernels in core/kernels, which
  /// take a base + stride instead of per-row pointers.
  const double* data() const { return data_.data(); }

  /// Element access.
  double at(size_t i, size_t j) const {
    PLANAR_DCHECK(i < rows_ && j < dim_);
    return data_[i * dim_ + j];
  }

  /// Number of rows / columns.
  size_t size() const { return rows_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }

  /// Grow-only bound on the smallest / largest value ever stored in column
  /// `j`. Requires at least one row.
  double ColumnMin(size_t j) const;
  double ColumnMax(size_t j) const;

  /// Reserves storage for `n` rows.
  void Reserve(size_t n) { data_.reserve(n * dim_); }

  /// Heap footprint in bytes.
  size_t MemoryUsage() const {
    return (data_.capacity() + col_min_.capacity() + col_max_.capacity()) *
           sizeof(double);
  }

 private:
  size_t dim_;
  size_t rows_ = 0;
  std::vector<double> data_;
  std::vector<double> col_min_;
  std::vector<double> col_max_;
};

/// The raw dataset: n points in R^d.
using Dataset = RowMatrix;
/// The materialized index space: n rows of phi(x) in R^d'.
using PhiMatrix = RowMatrix;

/// Evaluates `fn` on every row of `points` (which must have
/// fn.input_dim() columns) and returns the n x output_dim phi matrix.
PhiMatrix MaterializePhi(const Dataset& points, const PhiFunction& fn);

}  // namespace planar

#endif  // PLANAR_CORE_ROW_MATRIX_H_
