// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/macros.h"
#include "geometry/vec.h"

namespace planar {

bool ScalarProductQuery::Matches(const double* phi_row) const {
  const double value = Dot(a.data(), phi_row, a.size());
  return cmp == Comparison::kLessEqual ? value <= b : value >= b;
}

double ScalarProductQuery::Residual(const double* phi_row) const {
  return Dot(a.data(), phi_row, a.size()) - b;
}

double ScalarProductQuery::Distance(const double* phi_row) const {
  const double norm = Norm(a);
  PLANAR_CHECK_GT(norm, 0.0);
  return std::fabs(Residual(phi_row)) / norm;
}

namespace {

bool AllFinite(std::span<const double> a, double b) {
  if (!std::isfinite(b)) return false;
  for (double ai : a) {
    if (!std::isfinite(ai)) return false;
  }
  return true;
}

}  // namespace

bool ScalarProductQuery::IsFinite() const { return AllFinite(a, b); }

std::string ScalarProductQuery::ToString() const {
  std::string out = "<a, phi(x)> ";
  out += cmp == Comparison::kLessEqual ? "<= " : ">= ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", b);
  out += buf;
  out += ", a=";
  out += VecToString(a);
  return out;
}

QueryParams::QueryParams(std::span<const double> values)
    : size_(values.size()) {
  if (wide()) heap_.resize(size_);
  std::copy(values.begin(), values.end(), data());
}

NormalizedQuery NormalizedQuery::From(const ScalarProductQuery& q) {
  NormalizedQuery n{QueryParams(q.a), q.b, q.cmp};
  if (n.b < 0.0) {
    for (double& ai : n.a) ai = -ai;
    n.b = -n.b;
    n.cmp = n.cmp == Comparison::kLessEqual ? Comparison::kGreaterEqual
                                            : Comparison::kLessEqual;
  }
  return n;
}

bool NormalizedQuery::IsDegenerate() const {
  for (double ai : a) {
    if (ai != 0.0) return false;
  }
  return true;
}

bool NormalizedQuery::IsFinite() const { return AllFinite(a, b); }

double NormalizedQuery::NormA() const { return Norm(a.data(), a.size()); }

}  // namespace planar
