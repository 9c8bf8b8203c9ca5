// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/row_matrix.h"

#include <algorithm>
#include <limits>

namespace planar {

RowMatrix::RowMatrix(size_t dim)
    : dim_(dim),
      col_min_(dim, std::numeric_limits<double>::infinity()),
      col_max_(dim, -std::numeric_limits<double>::infinity()) {
  PLANAR_CHECK_GT(dim, 0u);
}

RowMatrix RowMatrix::FromRowMajor(size_t dim, std::vector<double> values) {
  PLANAR_CHECK_GT(dim, 0u);
  PLANAR_CHECK_EQ(values.size() % dim, 0u);
  RowMatrix m(dim);
  m.rows_ = values.size() / dim;
  m.data_ = std::move(values);
  for (size_t i = 0; i < m.rows_; ++i) {
    const double* r = m.row(i);
    for (size_t j = 0; j < dim; ++j) {
      m.col_min_[j] = std::min(m.col_min_[j], r[j]);
      m.col_max_[j] = std::max(m.col_max_[j], r[j]);
    }
  }
  return m;
}

void RowMatrix::AppendRow(const double* values) {
  data_.insert(data_.end(), values, values + dim_);
  ++rows_;
  for (size_t j = 0; j < dim_; ++j) {
    col_min_[j] = std::min(col_min_[j], values[j]);
    col_max_[j] = std::max(col_max_[j], values[j]);
  }
}

void RowMatrix::AppendRow(const std::vector<double>& values) {
  PLANAR_CHECK_EQ(values.size(), dim_);
  AppendRow(values.data());
}

void RowMatrix::SetRow(size_t i, const double* values) {
  PLANAR_CHECK_LT(i, rows_);
  double* dst = data_.data() + i * dim_;
  for (size_t j = 0; j < dim_; ++j) {
    dst[j] = values[j];
    col_min_[j] = std::min(col_min_[j], values[j]);
    col_max_[j] = std::max(col_max_[j], values[j]);
  }
}

double RowMatrix::ColumnMin(size_t j) const {
  PLANAR_CHECK_LT(j, dim_);
  PLANAR_CHECK_GT(rows_, 0u);
  return col_min_[j];
}

double RowMatrix::ColumnMax(size_t j) const {
  PLANAR_CHECK_LT(j, dim_);
  PLANAR_CHECK_GT(rows_, 0u);
  return col_max_[j];
}

PhiMatrix MaterializePhi(const Dataset& points, const PhiFunction& fn) {
  PLANAR_CHECK_EQ(points.dim(), fn.input_dim());
  PhiMatrix phi(fn.output_dim());
  phi.Reserve(points.size());
  std::vector<double> out(fn.output_dim());
  for (size_t i = 0; i < points.size(); ++i) {
    fn.Apply(points.row(i), out.data());
    phi.AppendRow(out.data());
  }
  return phi;
}

}  // namespace planar
