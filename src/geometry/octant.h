// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Hyper-octant sign patterns (Section 4.5 of the paper). With the
// inequality parameter b normalized to be non-negative, the sign pattern
// of the query normal a determines the octant O in which the query
// hyperplane intersects the coordinate axes: sign(O, i) = sign(a_i).

#ifndef PLANAR_GEOMETRY_OCTANT_H_
#define PLANAR_GEOMETRY_OCTANT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace planar {

/// A sign pattern in {-1, +1}^d identifying a hyper octant. Axes with
/// a_i == 0 are recorded as +1 (they are ignored during query processing,
/// per the paper's assumption 1).
class Octant {
 public:
  Octant() = default;

  /// The octant containing the axis intersections of a query hyperplane
  /// with normal `a` (and b >= 0): sign(O, i) = sign(a_i), zero mapped
  /// to +1.
  static Octant FromNormal(std::span<const double> a);
  static Octant FromNormal(const std::vector<double>& a) {
    return FromNormal(std::span<const double>(a));
  }

  /// The first hyper octant (all +1) in dimension d.
  static Octant First(size_t d);

  /// Sign of axis i: -1.0 or +1.0.
  double sign(size_t i) const { return negative_[i] ? -1.0 : 1.0; }

  /// Dimensionality.
  size_t dim() const { return negative_.size(); }

  /// True iff every axis has sign +1.
  bool IsFirst() const;

  /// Compact id: bit i set iff sign(i) == -1. Requires dim() <= 64.
  uint64_t Id() const;

  /// E.g. "(+,-,+)".
  std::string ToString() const;

  friend bool operator==(const Octant& a, const Octant& b) {
    return a.negative_ == b.negative_;
  }

 private:
  // true at position i iff the octant is negative along axis i.
  std::vector<bool> negative_;
};

}  // namespace planar

#endif  // PLANAR_GEOMETRY_OCTANT_H_
