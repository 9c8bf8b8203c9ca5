// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "geometry/octant.h"

#include "common/macros.h"

namespace planar {

Octant Octant::FromNormal(std::span<const double> a) {
  Octant octant;
  octant.negative_.resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) octant.negative_[i] = a[i] < 0.0;
  return octant;
}

Octant Octant::First(size_t d) {
  Octant octant;
  octant.negative_.assign(d, false);
  return octant;
}

bool Octant::IsFirst() const {
  for (bool neg : negative_) {
    if (neg) return false;
  }
  return true;
}

uint64_t Octant::Id() const {
  PLANAR_CHECK_LE(negative_.size(), 64u);
  uint64_t id = 0;
  for (size_t i = 0; i < negative_.size(); ++i) {
    if (negative_[i]) id |= (uint64_t{1} << i);
  }
  return id;
}

std::string Octant::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < negative_.size(); ++i) {
    if (i > 0) out += ',';
    out += negative_[i] ? '-' : '+';
  }
  out += ')';
  return out;
}

}  // namespace planar
