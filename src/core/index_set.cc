// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/index_set.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fold.h"
#include "geometry/vec.h"

namespace planar {

namespace {

// Normal sampling stops after budget * this many attempts even when
// dedup kept the set below budget, so a domain that yields only parallel
// normals (point domains) ends after at most kMaxIndexBudget * 16 draws.
constexpr size_t kMaxAttemptsPerIndex = 16;

constexpr char kEmptyPhiMsg[] = "cannot index an empty phi matrix";

// Derives the octant from the domain signs; fails when a domain straddles
// zero (octant would be ambiguous).
Result<Octant> OctantFromDomains(const std::vector<ParameterDomain>& domains) {
  std::vector<double> representative(domains.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    const ParameterDomain& d = domains[i];
    if (d.lo > d.hi) {
      return Status::InvalidArgument("parameter domain with lo > hi");
    }
    if (d.lo < 0.0 && d.hi > 0.0) {
      return Status::InvalidArgument(
          "parameter domain straddles zero; the query octant is ambiguous");
    }
    // A domain touching or equal to zero counts as positive (the axis is
    // then ignored during query processing when a_i == 0).
    representative[i] = d.hi > 0.0 ? d.hi : d.lo;
  }
  return Octant::FromNormal(representative);
}

// Samples one mirrored-space normal: each entry uniform over the magnitude
// range of its domain, clamped away from zero.
std::vector<double> SampleNormal(const std::vector<ParameterDomain>& domains,
                                 Rng& rng) {
  constexpr double kMinEntry = 1e-12;
  std::vector<double> c(domains.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    const double m1 = std::fabs(domains[i].lo);
    const double m2 = std::fabs(domains[i].hi);
    const double lo = std::min(m1, m2);
    const double hi = std::max(m1, m2);
    double v = rng.Uniform(lo, hi);
    if (lo == hi) v = lo;  // degenerate (known-constant) parameter
    if (v < kMinEntry) v = hi > kMinEntry ? kMinEntry : 1.0;
    c[i] = v;
  }
  return c;
}

// Build and BuildWithNormals: BuildEach over one matrix.
Result<PlanarIndexSet> BuildOne(
    PhiMatrix phi,
    const std::vector<PlanarIndexSet::IndexDefinition>& definitions,
    const IndexSetOptions& options) {
  std::vector<PhiMatrix> phis;
  phis.push_back(std::move(phi));
  PLANAR_ASSIGN_OR_RETURN(
      std::vector<PlanarIndexSet> sets,
      PlanarIndexSet::BuildEach(std::move(phis), definitions, options));
  return std::move(sets.front());
}

}  // namespace

Result<PlanarIndexSet> PlanarIndexSet::Build(
    PhiMatrix phi, const std::vector<ParameterDomain>& domains,
    const IndexSetOptions& options) {
  PLANAR_ASSIGN_OR_RETURN(std::vector<IndexDefinition> definitions,
                          SampleDefinitions(phi, domains, options));
  return BuildOne(std::move(phi), definitions, options);
}

Result<std::vector<PlanarIndexSet::IndexDefinition>>
PlanarIndexSet::SampleDefinitions(const PhiMatrix& phi,
                                  const std::vector<ParameterDomain>& domains,
                                  const IndexSetOptions& options) {
  if (phi.empty()) {
    return Status::InvalidArgument(kEmptyPhiMsg);
  }
  if (domains.size() != phi.dim()) {
    return Status::InvalidArgument(
        "one parameter domain per phi output axis is required");
  }
  if (options.budget == 0) {
    return Status::InvalidArgument("index budget must be positive");
  }
  if (options.budget > kMaxIndexBudget) {
    return Status::InvalidArgument("index budget exceeds kMaxIndexBudget (" +
                                   std::to_string(kMaxIndexBudget) + ")");
  }
  PLANAR_ASSIGN_OR_RETURN(Octant octant, OctantFromDomains(domains));

  // Serial and RNG-sequential: O(budget^2 d') with no data access, so
  // parallelizing it would buy nothing and cost determinism of the
  // accepted sequence.
  Rng rng(options.seed);
  const size_t max_attempts = options.budget * kMaxAttemptsPerIndex;
  std::vector<IndexDefinition> definitions;
  size_t attempts = 0;
  while (definitions.size() < options.budget && attempts < max_attempts) {
    ++attempts;
    std::vector<double> c = SampleNormal(domains, rng);
    bool redundant = false;
    for (const auto& existing : definitions) {
      if (AreParallel(existing.first, c, options.dedup_tolerance)) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    definitions.emplace_back(std::move(c), octant);
  }
  if (definitions.empty()) {
    return Status::Internal("failed to sample any index normal");
  }
  return definitions;
}

Result<PlanarIndexSet> PlanarIndexSet::BuildWithNormals(
    PhiMatrix phi, const std::vector<std::vector<double>>& normals,
    const Octant& octant, const IndexSetOptions& options) {
  std::vector<IndexDefinition> definitions;
  definitions.reserve(normals.size());
  for (const auto& normal : normals) {
    definitions.emplace_back(normal, octant);
  }
  return BuildOne(std::move(phi), definitions, options);
}

Result<std::vector<PlanarIndexSet>> PlanarIndexSet::BuildEach(
    std::vector<PhiMatrix> phis,
    const std::vector<IndexDefinition>& definitions,
    const IndexSetOptions& options) {
  for (const PhiMatrix& phi : phis) {
    if (phi.empty()) return Status::InvalidArgument(kEmptyPhiMsg);
  }
  if (definitions.empty()) {
    return Status::InvalidArgument("at least one normal is required");
  }
  std::vector<PlanarIndexSet> sets;
  sets.reserve(phis.size());
  for (PhiMatrix& phi : phis) {
    sets.push_back(PlanarIndexSet(std::move(phi), options));
  }
  PLANAR_RETURN_IF_ERROR(BuildIndices(sets, definitions));
  return sets;
}

Status PlanarIndexSet::BuildIndices(
    std::span<PlanarIndexSet> sets,
    const std::vector<IndexDefinition>& definitions) {
  const size_t per_set = definitions.size();
  const size_t count = sets.size() * per_set;
  if (count == 0) return Status::OK();
  size_t rows = 0;
  for (const PlanarIndexSet& set : sets) rows += set.size();
  const size_t width =
      rows < kParallelBuildMinRows ? 1 : sets.front().options_.build_threads;
  // Each slot builds independently against its set's (read-only) phi
  // matrix; slots keep definition order, so every set's indices_ layout
  // — and therefore SelectBestIndex tie-breaking, serialization order,
  // and every stretch/angle score — is identical to the serial build.
  std::vector<std::optional<PlanarIndex>> slots(count);
  std::vector<Status> statuses(count, Status::OK());
  ThreadPool::Shared().ParallelFor(
      count,
      [&](size_t slot) {
        const PlanarIndexSet& set = sets[slot / per_set];
        const IndexDefinition& definition = definitions[slot % per_set];
        Result<PlanarIndex> index =
            PlanarIndex::Build(set.phi_.get(), definition.first,
                               definition.second, set.options_.index_options);
        if (index.ok()) {
          slots[slot].emplace(std::move(index).value());
        } else {
          statuses[slot] = index.status();
        }
      },
      width);
  for (const Status& status : statuses) {
    PLANAR_RETURN_IF_ERROR(status);
  }
  for (size_t s = 0; s < sets.size(); ++s) {
    std::vector<PlanarIndex>& indices = sets[s].indices_;
    indices.reserve(indices.size() + per_set);
    for (size_t i = 0; i < per_set; ++i) {
      indices.push_back(std::move(*slots[s * per_set + i]));
    }
  }
  return Status::OK();
}

int PlanarIndexSet::SelectBestIndex(const NormalizedQuery& q) const {
  PlanarIndex::PlanScratch scratch;
  PlanarIndex::Candidate winner;
  return Choose(q, &scratch, &winner);
}

int PlanarIndexSet::Choose(const NormalizedQuery& q,
                           PlanarIndex::PlanScratch* scratch,
                           PlanarIndex::Candidate* winner) const {
  // Non-finite parameters defeat every selection heuristic and the index
  // pruning math itself; reporting "no index" routes such queries to the
  // exact sequential-scan fallback.
  if (!q.IsFinite()) return -1;
  // Each candidate is built in place; only a new winner is copied.
  const auto score = [&](const PlanarIndex& index) {
    PlanarIndex::Candidate c;
    switch (options_.selector) {
      case IndexSetOptions::Selector::kStretch:
        c.score = index.MaxStretch(q);  // smaller is better
        break;
      case IndexSetOptions::Selector::kAngle:
        c.score = -index.CosAngle(q);  // larger cosine is better
        break;
      case IndexSetOptions::Selector::kIntervalCount:
        // The CDF-predicted |II|: no key probe until the winner is known.
        return index.Score(q, scratch);
    }
    return c;
  };
  int best = -1;
  for (size_t i = 0; i < indices_.size(); ++i) {
    const PlanarIndex& index = indices_[i];
    if (!index.CanServe(q)) continue;
    const PlanarIndex::Candidate c = score(index);
    if (best == -1 || c.score < winner->score) {
      best = static_cast<int>(i);
      *winner = c;
    }
  }
  return best;
}

PlanarIndexSet::Selection PlanarIndexSet::Select(
    const NormalizedQuery& q) const {
  // One scratch for every candidate's plan: Prepare stays off the heap.
  PlanarIndex::PlanScratch scratch;
  PlanarIndex::Candidate winner;
  Selection best;
  best.index = Choose(q, &scratch, &winner);
  if (best.index >= 0) {
    const PlanarIndex& chosen = indices_[static_cast<size_t>(best.index)];
    best.plan = options_.selector == IndexSetOptions::Selector::kIntervalCount
                    ? chosen.Finish(winner)
                    : chosen.MakePlan(q, &scratch);
  }
  return best;
}

bool PlanarIndexSet::PrefersScan(const PlanarIndex::Intervals& iv,
                                 double refine_floor) const {
  const double intermediate = static_cast<double>(iv.intermediate());
  return options_.scan_fallback_fraction < 1.0 &&
         intermediate > refine_floor &&
         intermediate > options_.scan_fallback_fraction *
                            static_cast<double>(phi_->size());
}

PlanarIndexSet::Explanation PlanarIndexSet::Explain(
    const ScalarProductQuery& q) const {
  Explanation e;
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const Selection best = Select(norm);
  if (best.index < 0) return e;
  e.index_used = best.index;
  e.index_explanation =
      indices_[static_cast<size_t>(best.index)].Describe(norm, best.plan);
  e.scan_fallback = PrefersScan(best.plan.intervals);
  return e;
}

std::string PlanarIndexSet::Explanation::ToString() const {
  if (index_used < 0) return "no compatible index: sequential scan";
  std::string out = "index " + std::to_string(index_used);
  if (scan_fallback) {
    out += " (hybrid fallback to sequential scan: interval too wide); would "
           "have run as: ";
  } else {
    out += ": ";
  }
  out += index_explanation.ToString();
  return out;
}

PlanarIndexSet::SelectivityBounds PlanarIndexSet::EstimateSelectivity(
    const ScalarProductQuery& q) const {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const Selection best = Select(norm);
  SelectivityBounds bounds;
  if (best.index < 0 || norm.IsDegenerate()) return bounds;
  const PlanarIndex::Intervals& iv = best.plan.intervals;
  const double n = static_cast<double>(phi_->size());
  const bool le = norm.cmp == Comparison::kLessEqual;
  const double accepted = static_cast<double>(
      le ? iv.smaller_end : phi_->size() - iv.larger_begin);
  bounds.lo = accepted / n;
  bounds.hi = (accepted + static_cast<double>(iv.intermediate())) / n;
  return bounds;
}

InequalityResult PlanarIndexSet::Inequality(const ScalarProductQuery& q) const {
  Result<InequalityResult> result = Inequality(q, Deadline::Infinite());
  PLANAR_CHECK(result.ok());  // an infinite deadline never expires
  return std::move(result).value();
}

Status PlanarIndexSet::CheckQueryDim(const ScalarProductQuery& q) const {
  if (q.a.size() == phi_->dim()) return Status::OK();
  return Status::InvalidArgument(
      "query has " + std::to_string(q.a.size()) +
      " parameters; the indexed function has " +
      std::to_string(phi_->dim()));
}

template <typename T, typename Scan, typename Serve>
Result<T> PlanarIndexSet::Route(const ScalarProductQuery& q,
                                double refine_floor, const Scan& scan,
                                const Serve& serve) const {
  PLANAR_RETURN_IF_ERROR(CheckQueryDim(q));
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const Selection best = Select(norm);
  if (best.index < 0 || PrefersScan(best.plan.intervals, refine_floor)) {
    return scan();
  }
  Result<T> result =
      serve(indices_[static_cast<size_t>(best.index)], norm, best.plan);
  if (result.ok()) StatsOf(result.value()).index_used = best.index;
  return result;
}

Result<InequalityResult> PlanarIndexSet::Inequality(
    const ScalarProductQuery& q, const Deadline& deadline) const {
  return Route<InequalityResult>(
      q, kAlwaysRefines, [&] { return ScanInequality(*phi_, q, deadline); },
      [&](const PlanarIndex& index, const NormalizedQuery& norm,
          const PlanarIndex::Plan& plan) {
        return index.RunInequality(norm, plan, deadline);
      });
}

Result<CountResult> PlanarIndexSet::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  // Divert to the flat scan only when the index would refine anyway
  // (gap over tolerance): a bounds-only answer is O(log n) and beats the
  // scan no matter how wide the intermediate interval is.
  return Route<CountResult>(
      q, tolerance.Allowed(static_cast<double>(phi_->size())),
      [&] { return ScanCountInequality(*phi_, q, deadline); },
      [&](const PlanarIndex& index, const NormalizedQuery& norm,
          const PlanarIndex::Plan& plan) {
        return index.RunCount(norm, plan, tolerance, deadline);
      });
}

Result<AggregateResult> PlanarIndexSet::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const int payload_column = options_.index_options.payload_column;
  return Route<AggregateResult>(
      q, kAlwaysRefines,
      [&] {
        return ScanAggregateInequality(*phi_, payload_column, q, deadline);
      },
      [&](const PlanarIndex& index, const NormalizedQuery& norm,
          const PlanarIndex::Plan& plan) {
        return index.RunAggregate(norm, plan, tolerance, deadline);
      });
}

Result<TopKResult> PlanarIndexSet::TopK(const ScalarProductQuery& q,
                                        size_t k) const {
  return TopK(q, k, Deadline::Infinite());
}

Result<TopKResult> PlanarIndexSet::TopK(const ScalarProductQuery& q, size_t k,
                                        const Deadline& deadline) const {
  // A +infinity refine floor keeps top-k on the index however wide its
  // II: only a query no index can serve (or a non-finite one, which
  // ScanTopK rejects) goes to the scan.
  return Route<TopKResult>(
      q, std::numeric_limits<double>::infinity(),
      [&] { return ScanTopK(*phi_, q, k, deadline); },
      [&](const PlanarIndex& index, const NormalizedQuery& norm,
          const PlanarIndex::Plan& plan) {
        return index.RunTopK(norm, plan, k, deadline);
      });
}

Status PlanarIndexSet::AddIndex(std::vector<double> normal,
                                const Octant& octant) {
  Result<PlanarIndex> index = PlanarIndex::Build(
      phi_.get(), std::move(normal), octant, options_.index_options);
  PLANAR_RETURN_IF_ERROR(index.status());
  indices_.push_back(std::move(index).value());
  return Status::OK();
}

Status PlanarIndexSet::AddIndices(
    const std::vector<IndexDefinition>& definitions) {
  return BuildIndices({this, 1}, definitions);
}

Status PlanarIndexSet::RemoveIndex(size_t i) {
  if (i >= indices_.size()) {
    return Status::OutOfRange("index position out of range");
  }
  indices_.erase(indices_.begin() + static_cast<ptrdiff_t>(i));
  return Status::OK();
}

Status PlanarIndexSet::UpdateRow(uint32_t row, const double* phi_values) {
  if (row >= phi_->size()) {
    return Status::OutOfRange("row id out of range");
  }
  phi_->SetRow(row, phi_values);
  for (PlanarIndex& index : indices_) {
    if (!index.Update(row)) {
      index.Rebuild();
      ++rebuild_count_;
    }
  }
  return Status::OK();
}

Status PlanarIndexSet::AppendRow(const double* phi_values) {
  phi_->AppendRow(phi_values);
  const uint32_t row = static_cast<uint32_t>(phi_->size() - 1);
  for (PlanarIndex& index : indices_) {
    if (!index.NotifyAppend(row)) {
      index.Rebuild();
      ++rebuild_count_;
    }
  }
  return Status::OK();
}

Status PlanarIndexSet::AppendRows(const double* rows, size_t count) {
  if (count == 0) return Status::OK();
  const uint32_t first = static_cast<uint32_t>(phi_->size());
  const size_t dim = phi_->dim();
  for (size_t i = 0; i < count; ++i) {
    phi_->AppendRow(rows + i * dim);
  }
  for (PlanarIndex& index : indices_) {
    if (!index.AppendBatch(first, count)) {
      index.Rebuild();
      ++rebuild_count_;
    }
  }
  return Status::OK();
}

PlanarIndexSet PlanarIndexSet::Clone() const {
  PlanarIndexSet copy(PhiMatrix(*phi_), options_);
  copy.rebuild_count_ = rebuild_count_;
  copy.indices_.reserve(indices_.size());
  for (const PlanarIndex& index : indices_) {
    copy.indices_.push_back(index.CloneFor(copy.phi_.get()));
  }
  return copy;
}

size_t PlanarIndexSet::MemoryUsage() const {
  size_t total = sizeof(*this) + phi_->MemoryUsage();
  for (const PlanarIndex& index : indices_) total += index.MemoryUsage();
  return total;
}

size_t PlanarIndexSet::ResidentBytes() const {
  const size_t n = phi_->size();
  // The matrix rows, plus per index one sorted key and one row id per
  // rank (the phase-1/2 walk).
  return n * phi_->dim() * sizeof(double) +
         indices_.size() * n * (sizeof(double) + sizeof(uint32_t));
}

}  // namespace planar
