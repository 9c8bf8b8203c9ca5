// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/macros.h"
#include "geometry/octant.h"
#include "geometry/vec.h"

namespace planar {

AdaptiveIndexSet::AdaptiveIndexSet(PlanarIndexSet set,
                                   AdaptiveOptions options)
    : set_(std::move(set)), options_(options) {
  PLANAR_CHECK_GT(options_.history, 0u);
  PLANAR_CHECK(options_.replace_fraction >= 0.0 &&
               options_.replace_fraction <= 1.0);
  use_counts_.assign(set_.num_indices(), 0);
}

void AdaptiveIndexSet::Record(const NormalizedQuery& q, int index_used) {
  ++queries_seen_;
  if (index_used >= 0 &&
      static_cast<size_t>(index_used) < use_counts_.size()) {
    ++use_counts_[static_cast<size_t>(index_used)];
  }
  if (q.IsDegenerate()) return;
  std::vector<double> magnitudes(q.a.size());
  for (size_t i = 0; i < q.a.size(); ++i) {
    // Zero parameters get a tiny positive weight so the normal stays a
    // valid (strictly positive) index normal.
    magnitudes[i] = std::max(std::fabs(q.a[i]), 1e-9);
  }
  history_.emplace_back(std::move(magnitudes), Octant::FromNormal(q.a));
  while (history_.size() > options_.history) history_.pop_front();
}

InequalityResult AdaptiveIndexSet::Inequality(const ScalarProductQuery& q) {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  InequalityResult result = set_.Inequality(q);
  Record(norm, result.stats.index_used);
  return result;
}

Result<TopKResult> AdaptiveIndexSet::TopK(const ScalarProductQuery& q,
                                          size_t k) {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  Result<TopKResult> result = set_.TopK(q, k);
  if (result.ok()) Record(norm, result->stats.index_used);
  return result;
}

Result<size_t> AdaptiveIndexSet::Readapt() {
  const size_t budget = set_.num_indices();
  size_t to_replace = static_cast<size_t>(
      options_.replace_fraction * static_cast<double>(budget));
  if (to_replace == 0 || history_.empty()) return size_t{0};

  // Normals from the history not already covered by a kept index,
  // most recent first.
  std::vector<std::pair<std::vector<double>, Octant>> wanted;
  for (auto it = history_.rbegin();
       it != history_.rend() && wanted.size() < to_replace; ++it) {
    bool covered = false;
    for (const auto& [normal, octant] : wanted) {
      if (octant == it->second &&
          AreParallel(normal, it->first, options_.dedup_tolerance)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    for (size_t i = 0; i < set_.num_indices(); ++i) {
      if (set_.index(i).octant() == it->second &&
          AreParallel(set_.index(i).normal(), it->first,
                      options_.dedup_tolerance)) {
        covered = true;
        break;
      }
    }
    if (!covered) wanted.push_back(*it);
  }
  if (wanted.empty()) return size_t{0};

  // Drop the least-used indices, one per wanted normal (never below one
  // index).
  std::vector<size_t> order(set_.num_indices());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return use_counts_[a] < use_counts_[b];
  });
  size_t replaced = 0;
  std::vector<size_t> drop(order.begin(),
                           order.begin() + std::min(wanted.size(),
                                                    order.size() - 1));
  // Remove from the highest position down so indices stay valid.
  std::sort(drop.rbegin(), drop.rend());
  for (size_t position : drop) {
    PLANAR_RETURN_IF_ERROR(set_.RemoveIndex(position));
  }
  // Build all replacement indices in one batch so the set-level
  // build_threads knob applies to re-adaptation too.
  const size_t adding = drop.size();
  wanted.resize(adding);
  PLANAR_RETURN_IF_ERROR(set_.AddIndices(wanted));
  replaced = adding;
  use_counts_.assign(set_.num_indices(), 0);
  return replaced;
}

}  // namespace planar
