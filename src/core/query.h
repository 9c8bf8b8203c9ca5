// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Scalar product queries (Problems 1 and 2 of the paper) and their
// normalized internal form.

#ifndef PLANAR_CORE_QUERY_H_
#define PLANAR_CORE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace planar {

/// Direction of the scalar product constraint.
enum class Comparison {
  kLessEqual,     // <a, phi(x)> <= b
  kGreaterEqual,  // <a, phi(x)> >= b
};

/// A scalar product query <a, phi(x)> cmp b. Both `a` and `b` are known
/// only at query time (the function phi was fixed at indexing time).
struct ScalarProductQuery {
  std::vector<double> a;
  double b = 0.0;
  Comparison cmp = Comparison::kLessEqual;

  /// Evaluates the predicate against a materialized phi row.
  bool Matches(const double* phi_row) const;

  /// Signed residual <a, phi_row> - b.
  double Residual(const double* phi_row) const;

  /// True iff every parameter (each a_i and b) is finite. Non-finite
  /// parameters defeat the key-interval pruning math (a NaN comparison is
  /// always false, an infinity collapses the envelope to b/0-style
  /// divisions), so index query paths reject them and set-level paths fall
  /// back to an exact sequential scan.
  bool IsFinite() const;

  /// Distance of phi_row to the query hyperplane: |<a,phi_row> - b| / |a|.
  double Distance(const double* phi_row) const;

  std::string ToString() const;
};

/// The parameter vector of a NormalizedQuery. Up to kInline entries live
/// inside the object, so normalizing a low-dimensional query touches no
/// heap; a wider vector takes one heap buffer.
class QueryParams {
 public:
  static constexpr size_t kInline = 16;

  QueryParams() = default;
  explicit QueryParams(std::span<const double> values);

  size_t size() const { return size_; }
  const double* data() const { return wide() ? heap_.data() : inline_; }
  double* data() { return wide() ? heap_.data() : inline_; }
  double operator[](size_t i) const { return data()[i]; }
  double& operator[](size_t i) { return data()[i]; }
  const double* begin() const { return data(); }
  const double* end() const { return data() + size_; }
  double* begin() { return data(); }
  double* end() { return data() + size_; }
  operator std::span<const double>() const { return {data(), size_}; }

 private:
  bool wide() const { return size_ > kInline; }

  double inline_[kInline] = {};
  std::vector<double> heap_;  // used only past kInline entries
  size_t size_ = 0;
};

/// The internal form with a non-negative inequality parameter: when b < 0
/// the constraint is negated ( <a,phi> <= b  <=>  <-a,phi> >= -b ), so
/// downstream code may assume b >= 0 (paper, Section 4.5). The octant in
/// which the query hyperplane meets the axes is then determined by the
/// signs of `a` alone (Octant::FromNormal(a)).
struct NormalizedQuery {
  QueryParams a;
  double b = 0.0;
  Comparison cmp = Comparison::kLessEqual;

  /// Normalizes `q`. The predicate is preserved exactly.
  static NormalizedQuery From(const ScalarProductQuery& q);

  /// True iff every parameter is zero (degenerate constant predicate).
  bool IsDegenerate() const;

  /// True iff every parameter is finite (see ScalarProductQuery::IsFinite).
  bool IsFinite() const;

  /// L2 norm of `a`.
  double NormA() const;
};

}  // namespace planar

#endif  // PLANAR_CORE_QUERY_H_
