// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/planar_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/kernels/kernels.h"
#include "core/scan.h"
#include "core/sort_util.h"
#include "geometry/vec.h"

namespace planar {

namespace {

// Exact signed residual <a, phi_row> - b, computed with the kernel dot so
// per-row evaluations (top-k walk) agree bit-for-bit with the batched
// verification blocks.
double ResidualNormalized(const NormalizedQuery& q, const double* phi_row) {
  return kernels::Ops().dot_one(q.a.data(), phi_row, q.a.size()) - q.b;
}

}  // namespace

Result<PlanarIndex> PlanarIndex::Build(const PhiMatrix* phi,
                                       std::vector<double> normal,
                                       const Octant& octant,
                                       const PlanarIndexOptions& options) {
  if (phi == nullptr) {
    return Status::InvalidArgument("phi matrix must not be null");
  }
  if (phi->empty()) {
    return Status::InvalidArgument("cannot index an empty phi matrix");
  }
  if (normal.size() != phi->dim() || octant.dim() != phi->dim()) {
    return Status::InvalidArgument(
        "normal / octant dimensionality must match the phi matrix");
  }
  for (double c : normal) {
    if (!(c > 0.0) || !std::isfinite(c)) {
      return Status::InvalidArgument(
          "index normal entries must be strictly positive and finite");
    }
  }
  if (options.epsilon_band < 0.0) {
    return Status::InvalidArgument("epsilon_band must be non-negative");
  }
  if (options.payload_column >= 0 &&
      static_cast<size_t>(options.payload_column) >= phi->dim()) {
    return Status::InvalidArgument(
        "payload_column must name a phi matrix column");
  }

  PlanarIndex index;
  index.phi_ = phi;
  index.options_ = options;
  index.normal_ = std::move(normal);
  index.translator_ = Translator::Create(*phi, octant, options.translation);
  index.Rebuild();
  return index;
}

Result<PlanarIndex> PlanarIndex::BuildFirstOctant(
    const PhiMatrix* phi, std::vector<double> normal,
    const PlanarIndexOptions& options) {
  const size_t d = normal.size();
  return Build(phi, std::move(normal), Octant::First(d), options);
}

void PlanarIndex::Rebuild() {
  translator_ =
      Translator::Create(*phi_, translator_.octant(), options_.translation);
  const size_t d = normal_.size();
  signed_normal_.resize(d);
  key_shift_ = 0.0;
  for (size_t i = 0; i < d; ++i) {
    signed_normal_[i] = translator_.octant().sign(i) * normal_[i];
    key_shift_ += normal_[i] * translator_.delta()[i];
  }

  const size_t n = phi_->size();
  // Keys by row first, computed into keys_ and reordered by rank below.
  // Batched kernel calls over contiguous phi row ranges; bit-identical to
  // per-row RawKey (same blocked dot, same shift), and — because every
  // row's key is independent — bit-identical for any shard count, so
  // build_threads never changes a key.
  keys_.resize(n);
  size_t threads = options_.build_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (threads > 1 && n >= kParallelBuildMinRows) {
    const size_t chunk = (n + threads - 1) / threads;
    ThreadPool::Shared().ParallelFor(
        threads,
        [&](size_t s) {
          const size_t begin = s * chunk;
          const size_t end = std::min(n, begin + chunk);
          if (begin >= end) return;
          kernels::Ops().dot_range(signed_normal_.data(), d, phi_->data(),
                                   phi_->dim(), begin, end - begin,
                                   key_shift_, keys_.data() + begin);
        },
        threads);
  } else {
    kernels::Ops().dot_range(signed_normal_.data(), d, phi_->data(),
                             phi_->dim(), 0, n, key_shift_, keys_.data());
  }
  std::vector<SortEntry> entries(n);
  for (size_t row = 0; row < n; ++row) {
    entries[row] = {keys_[row], static_cast<uint32_t>(row)};
  }
  SortEntries(&entries, options_.build_threads);

  ids_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    keys_[r] = entries[r].key;
    ids_[r] = entries[r].id;
  }
  RefreshSearchLayout();
}

void PlanarIndex::RefreshSearchLayout() {
  // Any mutation of keys_ refits the learned CDF, so predictions are
  // never stale. A fit over the error budget is discarded and every
  // boundary search takes the flat std::upper_bound.
  LearnedCdf::Options cdf_options;
  cdf_options.max_error_budget = kLearnedCdfMaxErrorBudget;
  // Scale segments with n (~1024 ranks each, >= the default 256):
  // a fixed segment count makes per-segment rank spans — and hence
  // fit error — grow linearly with n, which busts the error budget
  // exactly on the large arrays where the model pays off. ~24 bytes
  // per segment keeps the sidecar under 0.1% of the key array.
  cdf_options.max_segments =
      std::max<size_t>(cdf_options.max_segments, keys_.size() / 1024);
  cdf_.Build(keys_.data(), keys_.size(), cdf_options);
  if (options_.payload_column >= 0) {
    BuildPrefixAggregates(
        phi_->data() + static_cast<size_t>(options_.payload_column),
        phi_->dim(), ids_.data(), ids_.size(), &payload_prefix_);
  } else {
    payload_prefix_.Clear();
  }
}

double PlanarIndex::RawKey(const double* phi_row) const {
  // Kernel dot (not geometry/vec.h Dot) so single-row key maintenance
  // matches the batched Rebuild computation bit-for-bit.
  return kernels::Ops().dot_one(signed_normal_.data(), phi_row,
                                signed_normal_.size()) +
         key_shift_;
}

size_t PlanarIndex::RankLessEqual(double key, double pred) const {
  if (!cdf_.empty()) {
    // Predict-then-probe (DESIGN.md 5k): the model predicts the
    // upper-bound rank, a windowed std::upper_bound probes
    // +/- (max_error + 2) ranks around it, and the O(1) validation
    // below only accepts the globally-correct rank — keys_[r-1] <= key
    // < keys_[r] with the array-edge cases — so a probe that clamped
    // at its window edge (true rank outside the window), a NaN probe,
    // or any model bug falls through to the flat search below. Answers
    // are therefore identical to std::upper_bound by construction.
    const double w = static_cast<double>(cdf_.max_error() + 2);
    const size_t n = keys_.size();
    const size_t lo = pred > w ? static_cast<size_t>(pred - w) : 0;
    const double hi_d = pred + w + 1.0;
    const size_t hi =
        hi_d >= static_cast<double>(n) ? n : static_cast<size_t>(hi_d);
    if (lo < hi) {
      const double* base = keys_.data();
      const size_t r = static_cast<size_t>(
          std::upper_bound(base + lo, base + hi, key) - base);
      if ((r == 0 || base[r - 1] <= key) && (r == n || base[r] > key)) {
        return r;
      }
    }
  }
  // No model (array below min_keys, or a fit over budget) or a failed
  // validation: the flat search over the whole key array.
  return static_cast<size_t>(
      std::upper_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
}

bool PlanarIndex::CanServe(const NormalizedQuery& q) const {
  if (q.a.size() != normal_.size()) return false;
  const Octant& oct = translator_.octant();
  for (size_t i = 0; i < q.a.size(); ++i) {
    if (q.a[i] > 0.0 && oct.sign(i) < 0.0) return false;
    if (q.a[i] < 0.0 && oct.sign(i) > 0.0) return false;
  }
  return true;
}

void PlanarIndex::PlanScratch::Reserve(size_t dim) {
  if (dim <= kInlineAxes) return;  // the current rows are wide enough
  if (heap_axes_.size() < dim) {
    heap_axes_.resize(dim);
    heap_prefix_.resize(dim + 1);
  }
  axes_ = heap_axes_.data();
  prefix_ = heap_prefix_.data();
}

PlanarIndex::Prepared PlanarIndex::Prepare(const NormalizedQuery& q,
                                           PlanScratch* scratch) const {
  Prepared p;
  p.b_prime = translator_.MirroredOffset(q);

  // Split axes into active (normal, finite ratio a~_i / c_i) and
  // always-excluded (a~_i == 0, or a ratio too degenerate to divide by).
  scratch->Reserve(q.a.size());
  PlanScratch::Axis* const axes = scratch->axes_;
  size_t m = 0;
  for (size_t i = 0; i < q.a.size(); ++i) {
    const double at = std::fabs(q.a[i]);
    const double psi_min = translator_.PsiMin(i);
    const double psi_max = translator_.PsiMax(i);
    const double ratio = at > 0.0 ? at / normal_[i] : 0.0;
    // Only axes whose ratio a~_i / c_i is a normal, finite double may
    // enter the rmin/rmax envelope: the ratio reappears as a divisor in
    // the key cuts ((b' - E) / r), so a ratio that underflowed to zero or
    // a denormal would evaluate b/0.0-style expressions, and an overflowed
    // infinity poisons the top-k lower bound. Degenerate-ratio axes get
    // the zero-axis treatment instead — bounded by their psi range and
    // resolved by exact verification — which is sound for any exclusion
    // choice.
    if (ratio >= std::numeric_limits<double>::min() &&
        std::isfinite(ratio)) {
      axes[m++] = {ratio, normal_[i] * psi_min, normal_[i] * psi_max,
                   at * psi_min, at * psi_max};
    } else {
      p.c0min += normal_[i] * psi_min;
      p.c0max += normal_[i] * psi_max;
      p.emin += at * psi_min;
      p.emax += at * psi_max;
    }
  }
  p.excluded_axes = q.a.size() - m;  // zero or degenerate-ratio axes
  if (m == 0) {
    // Every axis is excluded: the key carries no information about the
    // scalar product, so the whole dataset is intermediate and verified
    // exactly.
    p.all_axes_zero = true;
    p.low_cut = -std::numeric_limits<double>::infinity();
    p.high_cut = std::numeric_limits<double>::infinity();
    return p;
  }

  size_t prefix = 0;  // smallest-ratio axes excluded
  size_t suffix = 0;  // largest-ratio axes excluded
  // Insertion sort by ratio: m <= d' is small, the pass is O(m^2) like
  // the exclusion search below, and equal ratios keep their axis order.
  for (size_t i = 1; i < m; ++i) {
    const PlanScratch::Axis axis = axes[i];
    size_t j = i;
    for (; j > 0 && axis.ratio < axes[j - 1].ratio; --j) axes[j] = axes[j - 1];
    axes[j] = axis;
  }

  if (options_.enable_axis_exclusion && m > 1) {
    // Prefix sums over ratio order for O(1) evaluation of any
    // prefix/suffix exclusion choice.
    PlanScratch::Prefix* const ps = scratch->prefix_;
    ps[0] = {0.0, 0.0, 0.0, 0.0};
    for (size_t i = 0; i < m; ++i) {
      ps[i + 1].c_min = ps[i].c_min + axes[i].c_psi_min;
      ps[i + 1].c_max = ps[i].c_max + axes[i].c_psi_max;
      ps[i + 1].a_min = ps[i].a_min + axes[i].a_psi_min;
      ps[i + 1].a_max = ps[i].a_max + axes[i].a_psi_max;
    }
    // Choose the exclusion (prefix, suffix) minimizing the interval width
    //   W = (b' - Emin)/rmin - (b' - Emax)/rmax + (C0max - C0min),
    // a proxy for |II| under a uniform key density.
    double best_width = std::numeric_limits<double>::infinity();
    for (size_t pre = 0; pre < m; ++pre) {
      for (size_t suf = 0; pre + suf + 1 <= m; ++suf) {
        const double rmin = axes[pre].ratio;
        const double rmax = axes[m - suf - 1].ratio;
        const double e_min =
            p.emin + ps[pre].a_min + (ps[m].a_min - ps[m - suf].a_min);
        const double e_max =
            p.emax + ps[pre].a_max + (ps[m].a_max - ps[m - suf].a_max);
        const double c_min =
            p.c0min + ps[pre].c_min + (ps[m].c_min - ps[m - suf].c_min);
        const double c_max =
            p.c0max + ps[pre].c_max + (ps[m].c_max - ps[m - suf].c_max);
        const double width = (p.b_prime - e_min) / rmin -
                             (p.b_prime - e_max) / rmax + (c_max - c_min);
        if (width < best_width) {
          best_width = width;
          prefix = pre;
          suffix = suf;
        }
      }
    }
  }

  p.excluded_axes += prefix + suffix;
  p.rmin = axes[prefix].ratio;
  p.rmax = axes[m - suffix - 1].ratio;
  for (size_t i = 0; i < prefix; ++i) {
    p.c0min += axes[i].c_psi_min;
    p.c0max += axes[i].c_psi_max;
    p.emin += axes[i].a_psi_min;
    p.emax += axes[i].a_psi_max;
  }
  for (size_t i = m - suffix; i < m; ++i) {
    p.c0min += axes[i].c_psi_min;
    p.c0max += axes[i].c_psi_max;
    p.emin += axes[i].a_psi_min;
    p.emax += axes[i].a_psi_max;
  }

  const double low = (p.b_prime - p.emax) / p.rmax + p.c0min;
  const double high = (p.b_prime - p.emin) / p.rmin + p.c0max;
  const double band = options_.epsilon_band *
                      (std::fabs(p.b_prime) + std::fabs(p.emax) +
                       std::fabs(low) + std::fabs(high) + 1.0);
  p.low_cut = low - band;
  p.high_cut = high + band;
  return p;
}

PlanarIndex::Candidate PlanarIndex::Score(const NormalizedQuery& q,
                                          PlanScratch* scratch) const {
  if (q.IsDegenerate()) {
    // Constant predicate: everything is decided outright, nothing is
    // intermediate.
    Candidate c;
    c.plan.intervals = {size(), size()};
    c.complete = true;
    return c;
  }
  Candidate c{Plan{Prepare(q, scratch), Intervals()}};
  if (cdf_.empty()) {
    c.plan = Finish(c);
    c.complete = true;
    c.score = static_cast<double>(c.plan.intervals.intermediate());
    return c;
  }
  c.low_rank = cdf_.PredictRank(c.plan.prepared.low_cut);
  c.high_rank = cdf_.PredictRank(c.plan.prepared.high_cut);
  c.score = c.high_rank - c.low_rank;
  return c;
}

PlanarIndex::Plan PlanarIndex::Finish(const Candidate& c) const {
  if (c.complete) return c.plan;
  Plan plan = c.plan;
  plan.intervals.smaller_end =
      RankLessEqual(plan.prepared.low_cut, c.low_rank);
  plan.intervals.larger_begin =
      RankLessEqual(plan.prepared.high_cut, c.high_rank);
  PLANAR_DCHECK(plan.intervals.smaller_end <= plan.intervals.larger_begin);
  return plan;
}

PlanarIndex::Plan PlanarIndex::MakePlan(const NormalizedQuery& q,
                                        PlanScratch* scratch) const {
  return Finish(Score(q, scratch));
}

PlanarIndex::Plan PlanarIndex::StandalonePlan(const NormalizedQuery& q) const {
  if (!q.IsFinite() || !CanServe(q)) return Plan();
  PlanScratch scratch;
  return MakePlan(q, &scratch);
}

Status PlanarIndex::CheckServable(const NormalizedQuery& q) const {
  if (!q.IsFinite()) {
    return Status::InvalidArgument("query parameters must be finite");
  }
  if (!CanServe(q)) {
    return Status::FailedPrecondition(
        "query octant is incompatible with this index");
  }
  return Status::OK();
}

Result<PlanarIndex::Intervals> PlanarIndex::ComputeIntervals(
    const NormalizedQuery& q) const {
  PLANAR_RETURN_IF_ERROR(CheckServable(q));
  PlanScratch scratch;
  return MakePlan(q, &scratch).intervals;
}

void PlanarIndex::CollectRange(size_t begin, size_t end,
                               std::vector<uint32_t>* out) const {
  PLANAR_CHECK(begin <= end && end <= size());
  out->insert(out->end(), ids_.begin() + static_cast<ptrdiff_t>(begin),
              ids_.begin() + static_cast<ptrdiff_t>(end));
}

Result<InequalityResult> PlanarIndex::Inequality(
    const ScalarProductQuery& q) const {
  return Inequality(NormalizedQuery::From(q));
}

Result<InequalityResult> PlanarIndex::Inequality(
    const NormalizedQuery& q) const {
  return Inequality(q, Deadline::Infinite());
}

Result<InequalityResult> PlanarIndex::Inequality(
    const NormalizedQuery& q, const Deadline& deadline) const {
  return RunInequality(q, StandalonePlan(q), deadline);
}

Result<PlanarIndex::Regions> PlanarIndex::Split(const NormalizedQuery& q,
                                                const Plan& plan) const {
  PLANAR_RETURN_IF_ERROR(CheckServable(q));
  PLANAR_CHECK_EQ(phi_->size(), size());
  Regions r;
  r.n = size();
  r.le = q.cmp == Comparison::kLessEqual;
  r.degenerate = q.IsDegenerate();
  if (r.degenerate) {
    // <0, phi(x)> cmp b with b >= 0: constant over all points.
    const bool all_match = r.le ? (0.0 <= q.b) : (0.0 >= q.b);
    r.accept_end = all_match ? r.n : 0;
    return r;
  }
  r.ii_begin = plan.intervals.smaller_end;
  r.ii_end = plan.intervals.larger_begin;
  r.accept_begin = r.le ? 0 : r.ii_end;
  r.accept_end = r.le ? r.ii_begin : r.n;
  return r;
}

VerifySource PlanarIndex::IISource(const Regions& r) const {
  return {phi_->data(), phi_->dim(), r.ii(), ids_.data() + r.ii_begin};
}

Result<InequalityResult> PlanarIndex::RunInequality(
    const NormalizedQuery& q, const Plan& plan,
    const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const Regions r, Split(q, plan));
  InequalityResult result;
  result.stats.num_points = r.n;
  result.stats.accepted_directly = r.accepted();
  result.stats.rejected_directly = r.rejected();
  result.stats.verified = r.ii();
  // Worst case up front (every II candidate accepted): one allocation for
  // the whole query, and the verify blocks compress-store straight into
  // the vector's tail.
  result.ids.reserve(r.accepted() + r.ii());
  if (r.degenerate) {
    // A constant answer lists the rows in ascending order, like the scan.
    result.ids.resize(r.accepted());
    std::iota(result.ids.begin(), result.ids.end(), 0u);
  } else {
    CollectRange(r.accept_begin, r.accept_end, &result.ids);
  }
  AppendIds sink{&result.ids};
  if (!VerifyRows(q, IISource(r), deadline, sink)) {
    return Status::DeadlineExceeded(
        "inequality query exceeded its deadline during II verification");
  }
  result.stats.result_size = result.ids.size();
  return result;
}

Result<CountResult> PlanarIndex::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance) const {
  return CountInequality(NormalizedQuery::From(q), tolerance,
                         Deadline::Infinite());
}

Result<CountResult> PlanarIndex::CountInequality(
    const NormalizedQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  return RunCount(q, StandalonePlan(q), tolerance, deadline);
}

Result<AggregateResult> PlanarIndex::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance) const {
  return AggregateInequality(NormalizedQuery::From(q), tolerance,
                             Deadline::Infinite());
}

Result<AggregateResult> PlanarIndex::AggregateInequality(
    const NormalizedQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  return RunAggregate(q, StandalonePlan(q), tolerance, deadline);
}

Result<CountResult> PlanarIndex::RunCount(const NormalizedQuery& q,
                                          const Plan& plan,
                                          const CountTolerance& tolerance,
                                          const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const Regions r, Split(q, plan));
  CountResult result;
  result.stats.num_points = r.n;
  result.stats.accepted_directly = r.accepted();
  result.stats.rejected_directly = r.rejected();
  result.lower = r.accepted();
  result.upper = r.accepted() + r.ii();
  const double allowed_d = tolerance.Allowed(static_cast<double>(r.n));
  const size_t allowed = allowed_d >= static_cast<double>(r.n)
                             ? r.n
                             : static_cast<size_t>(allowed_d);
  if (result.gap() > allowed) {
    // Refine: stream the II through the counting sink, stopping as soon
    // as the unresolved remainder fits the tolerance (never, at 0).
    CountAccepts sink;
    const auto stop = [&](size_t done) { return r.ii() - done <= allowed; };
    if (!VerifyRows(q, IISource(r), deadline, sink, stop)) {
      return Status::DeadlineExceeded(
          "count query exceeded its deadline during II refinement");
    }
    result.refined = true;
    result.lower = r.accepted() + sink.accepted;
    result.upper = result.lower + (r.ii() - sink.verified);
    result.stats.verified = sink.verified;
  }
  result.exact = result.gap() == 0;
  // Point estimate inside the bounds: the learned CDF evaluated at the
  // midpoint of the key cuts when available (clamped into the sound
  // bounds, so a bad model can bias but never lie), otherwise the bound
  // midpoint.
  result.estimate = result.lower + result.gap() / 2;
  const double mid_cut =
      0.5 * plan.prepared.low_cut + 0.5 * plan.prepared.high_cut;
  if (!result.exact && !cdf_.empty() && std::isfinite(mid_cut)) {
    const double pred = cdf_.PredictRank(mid_cut);
    double est = r.le ? pred : static_cast<double>(r.n) - pred;
    est = std::min(static_cast<double>(result.upper),
                   std::max(static_cast<double>(result.lower), est));
    result.estimate = std::min(
        result.upper, std::max(result.lower, static_cast<size_t>(est + 0.5)));
    result.model_estimated = true;
  }
  result.stats.result_size = result.estimate;
  return result;
}

Result<AggregateResult> PlanarIndex::RunAggregate(
    const NormalizedQuery& q, const Plan& plan,
    const CountTolerance& tolerance, const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const Regions r, Split(q, plan));
  if (!has_payload()) {
    return Status::FailedPrecondition(
        "no payload column configured (set PlanarIndexOptions::"
        "payload_column)");
  }
  const PrefixAggregates& pre = payload_prefix_;
  PLANAR_DCHECK(pre.sum.size() == r.n + 1);
  AggregateResult result;
  result.count.stats.num_points = r.n;
  result.count.stats.accepted_directly = r.accepted();
  result.count.stats.rejected_directly = r.rejected();

  // Exact payload total of the outright-accepted rank range, straight
  // from the prefix sums; the II contributes its negative/positive-part
  // envelope to the bounds.
  const double accept_sum = pre.sum[r.accept_end] - pre.sum[r.accept_begin];
  result.sum_lower = accept_sum + (pre.neg[r.ii_end] - pre.neg[r.ii_begin]);
  result.sum_upper = accept_sum + (pre.pos[r.ii_end] - pre.pos[r.ii_begin]);
  result.count.lower = r.accepted();
  result.count.upper = r.accepted() + r.ii();

  const double total_abs = pre.pos[r.n] - pre.neg[r.n];
  const double allowed = tolerance.Allowed(total_abs);
  const double gap = result.sum_upper - result.sum_lower;
  if (gap <= allowed) {
    result.exact = gap == 0.0;
    result.sum = result.exact ? result.sum_lower
                              : 0.5 * result.sum_lower + 0.5 * result.sum_upper;
  } else {
    // Refine: stream the II in rank order, accumulating accepted payloads
    // in canonical blocked summation, stopping once the envelope of the
    // unresolved rank suffix fits the tolerance. The suffix envelope is a
    // prefix-array difference, so the stop predicate is O(1) per poll.
    CountAccepts sink{
        .payload = phi_->data() + static_cast<size_t>(options_.payload_column),
        .stride = phi_->dim()};
    const auto stop = [&](size_t done) {
      const size_t rank = r.ii_begin + done;
      const double rem_gap = (pre.pos[r.ii_end] - pre.pos[rank]) -
                             (pre.neg[r.ii_end] - pre.neg[rank]);
      return rem_gap <= allowed;
    };
    if (!VerifyRows(q, IISource(r), deadline, sink, stop)) {
      return Status::DeadlineExceeded(
          "aggregate query exceeded its deadline during II refinement");
    }
    result.refined = true;
    result.count.refined = true;
    result.count.lower = r.accepted() + sink.accepted;
    result.count.upper = result.count.lower + (r.ii() - sink.verified);
    result.count.stats.verified = sink.verified;
    const size_t rank = r.ii_begin + sink.verified;
    const double known = accept_sum + sink.sum;
    result.exact = sink.verified == r.ii();
    result.sum_lower =
        result.exact ? known : known + (pre.neg[r.ii_end] - pre.neg[rank]);
    result.sum_upper =
        result.exact ? known : known + (pre.pos[r.ii_end] - pre.pos[rank]);
    result.sum = result.exact ? known
                              : 0.5 * result.sum_lower + 0.5 * result.sum_upper;
  }
  result.count.exact = result.count.gap() == 0;
  result.count.estimate = result.count.lower + result.count.gap() / 2;
  result.count.stats.result_size = result.count.estimate;
  return result;
}

Result<TopKResult> PlanarIndex::TopK(const ScalarProductQuery& q,
                                     size_t k) const {
  return TopK(NormalizedQuery::From(q), k);
}

Result<TopKResult> PlanarIndex::TopK(const NormalizedQuery& q,
                                     size_t k) const {
  return TopK(q, k, Deadline::Infinite());
}

Result<TopKResult> PlanarIndex::TopK(const NormalizedQuery& q, size_t k,
                                     const Deadline& deadline) const {
  return RunTopK(q, StandalonePlan(q), k, deadline);
}

Result<TopKResult> PlanarIndex::RunTopK(const NormalizedQuery& q,
                                        const Plan& plan, size_t k,
                                        const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const Regions r, Split(q, plan));
  // |a| == 0 also when a != 0 but its squares underflow; ScanTopK
  // refuses both the same way.
  const double norm_a = q.NormA();
  if (norm_a == 0.0) {
    return Status::InvalidArgument(
        "top-k distance is undefined for an all-zero query normal");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  TopKResult result;
  result.stats.num_points = r.n;
  // The heap can never hold more than n entries, so a huge k does not
  // reserve unbounded storage.
  TopKBuffer buffer(k, r.n);
  // Built only on expiry: the message would cost a heap allocation on
  // every query.
  const auto deadline_status = [] {
    return Status::DeadlineExceeded(
        "top-k query exceeded its deadline during candidate evaluation");
  };

  // Phase 1: verify the intermediate interval (Algorithm 2, lines 3-7).
  OfferNearest sink{&buffer, norm_a};
  if (!VerifyRows(q, IISource(r), deadline, sink)) return deadline_status();
  result.stats.verified_intermediate = r.ii();

  // Phase 2: walk the directly-accepted region from the query hyperplane
  // outward (down from accept_end for <=, up from accept_begin for >=),
  // pruning with the lower-bound distance (lines 8-14). The deadline is
  // polled once per kDeadlineCheckInterval rows, including the first.
  const Prepared& p = plan.prepared;
  for (size_t i = 0; i < r.accepted(); ++i) {
    if ((i & (kDeadlineCheckInterval - 1)) == 0 && deadline.Expired()) {
      return deadline_status();
    }
    const size_t rank = r.le ? r.accept_end - 1 - i : r.accept_begin + i;
    // Lower-bound distance of a directly-accepted point with this key
    // (Definition 5 / Claim 3, generalized for zero-parameter axes); once
    // the heap is full and even it exceeds the worst entry, stop (lines
    // 10-11).
    const double key = keys_[rank];
    const double bound =
        r.le ? (p.b_prime - p.emax) - p.rmax * (key - p.c0min)
             : p.rmin * (key - p.c0max) + p.emin - p.b_prime;
    if (buffer.full() &&
        std::max(0.0, bound) / norm_a > buffer.WorstDistance()) {
      result.stats.early_terminated = true;
      break;
    }
    const uint32_t id = ids_[rank];
    buffer.Insert(id,
                  std::fabs(ResidualNormalized(q, phi_->row(id))) / norm_a);
    ++result.stats.scanned_accept_region;
  }

  result.neighbors = buffer.TakeSorted();
  return result;
}

PlanarIndex::Explanation PlanarIndex::Explain(
    const NormalizedQuery& q) const {
  return Describe(q, StandalonePlan(q));
}

PlanarIndex::Explanation PlanarIndex::Describe(const NormalizedQuery& q,
                                               const Plan& plan) const {
  Explanation e;
  e.num_points = size();
  e.cmp = q.cmp;
  e.can_serve = CheckServable(q).ok();
  if (!e.can_serve) return e;
  e.degenerate = q.IsDegenerate();
  const Prepared& p = plan.prepared;
  e.b_prime = p.b_prime;
  e.rmin = p.rmin;
  e.rmax = p.rmax;
  e.excluded_axes = p.excluded_axes;
  e.low_cut = p.low_cut;
  e.high_cut = p.high_cut;
  e.smaller_end = plan.intervals.smaller_end;
  e.larger_begin = plan.intervals.larger_begin;
  return e;
}

std::string PlanarIndex::Explanation::ToString() const {
  char buf[512];
  if (!can_serve) return "index cannot serve this query (octant mismatch)";
  if (degenerate) return "degenerate all-zero query normal: constant answer";
  const bool le = cmp == Comparison::kLessEqual;
  const size_t accepted = le ? smaller_end : num_points - larger_begin;
  const size_t rejected = le ? num_points - larger_begin : smaller_end;
  std::snprintf(
      buf, sizeof(buf),
      "b'=%.4g ratios=[%.4g, %.4g] excluded_axes=%zu key cuts=(%.4g, %.4g) "
      "-> accept %zu outright, verify %zu, reject %zu of %zu (%.1f%% pruned)",
      b_prime, rmin, rmax, excluded_axes, low_cut, high_cut, accepted,
      intermediate(), rejected, num_points,
      num_points == 0
          ? 100.0
          : 100.0 * static_cast<double>(accepted + rejected) /
                static_cast<double>(num_points));
  return buf;
}

double PlanarIndex::MaxStretch(const NormalizedQuery& q) const {
  PLANAR_CHECK(CanServe(q));
  const double b_prime = translator_.MirroredOffset(q);
  double m_max = -std::numeric_limits<double>::infinity();
  double m_min = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < q.a.size(); ++i) {
    const double at = std::fabs(q.a[i]);
    if (at == 0.0) continue;
    // c_i * I(q, i) in mirrored space (Equation 13/15 of the paper).
    const double m = normal_[i] * (b_prime / at);
    m_max = std::max(m_max, m);
    m_min = std::min(m_min, m);
  }
  if (!std::isfinite(m_max)) return 0.0;  // all-zero query normal
  const double min_c = *std::min_element(normal_.begin(), normal_.end());
  return (m_max - m_min) / min_c;
}

double PlanarIndex::CosAngle(const NormalizedQuery& q) const {
  PLANAR_CHECK(CanServe(q));
  double dot = 0.0;
  double norm_a = 0.0;
  for (size_t i = 0; i < q.a.size(); ++i) {
    const double at = std::fabs(q.a[i]);
    dot += at * normal_[i];
    norm_a += at * at;
  }
  if (norm_a == 0.0) return 1.0;  // degenerate query: any index is "parallel"
  return dot / (std::sqrt(norm_a) * Norm(normal_));
}

void PlanarIndex::InsertKey(double key, uint32_t row) {
  size_t pos = static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  // Keep (key, id) order so the result matches a full Rebuild.
  while (pos < keys_.size() && keys_[pos] == key && ids_[pos] < row) ++pos;
  keys_.insert(keys_.begin() + static_cast<ptrdiff_t>(pos), key);
  ids_.insert(ids_.begin() + static_cast<ptrdiff_t>(pos), row);
}

bool PlanarIndex::Update(uint32_t row) {
  PLANAR_CHECK_LT(row, size());
  PLANAR_CHECK_EQ(phi_->size(), size());
  const double* phi_row = phi_->row(row);
  if (!translator_.Covers(phi_row)) return false;
  const double new_key = RawKey(phi_row);
  // One O(n) pass finds the row's rank — the same order as the memmoves
  // of the erase and insert below.
  const auto rank = std::find(ids_.begin(), ids_.end(), row) - ids_.begin();
  PLANAR_CHECK_LT(static_cast<size_t>(rank), size());
  if (keys_[static_cast<size_t>(rank)] == new_key) return true;
  keys_.erase(keys_.begin() + rank);
  ids_.erase(ids_.begin() + rank);
  InsertKey(new_key, row);
  RefreshSearchLayout();
  return true;
}

bool PlanarIndex::UpdateBatch(const std::vector<uint32_t>& rows) {
  PLANAR_CHECK_EQ(phi_->size(), size());
  for (uint32_t row : rows) {
    PLANAR_CHECK_LT(row, size());
    if (!translator_.Covers(phi_->row(row))) return false;
  }
  if (rows.empty()) return true;
  // Recompute every listed key, then splice them back with one merge
  // pass instead of re-sorting all n entries — compact the untouched
  // entries (O(n), stable, preserves rank order), then SpliceSorted
  // (O(n + k log k) total). The result is identical to a Rebuild
  // (machine-checked by the UpdateBatchMatchesFullRebuild regression
  // test).
  const size_t n = size();
  std::vector<SortEntry> fresh;
  fresh.reserve(rows.size());
  std::vector<unsigned char> changed(n, 0);
  for (uint32_t row : rows) {
    if (changed[row] != 0) continue;  // listed twice: already fresh
    changed[row] = 1;
    fresh.push_back({RawKey(phi_->row(row)), row});
  }
  size_t kept = 0;
  for (size_t r = 0; r < n; ++r) {
    if (changed[ids_[r]] == 0) {
      keys_[kept] = keys_[r];
      ids_[kept] = ids_[r];
      ++kept;
    }
  }
  PLANAR_DCHECK(kept + fresh.size() == n);
  SpliceSorted(kept, &fresh);
  return true;
}

bool PlanarIndex::NotifyAppend(uint32_t row) {
  PLANAR_CHECK_EQ(static_cast<size_t>(row) + 1, phi_->size());
  PLANAR_CHECK_EQ(static_cast<size_t>(row), size());
  const double* phi_row = phi_->row(row);
  if (!translator_.Covers(phi_row)) return false;
  InsertKey(RawKey(phi_row), row);
  RefreshSearchLayout();
  return true;
}

bool PlanarIndex::AppendBatch(uint32_t first_row, size_t count) {
  PLANAR_CHECK_EQ(static_cast<size_t>(first_row), size());
  PLANAR_CHECK_EQ(static_cast<size_t>(first_row) + count, phi_->size());
  if (count == 0) return true;
  const size_t old_n = size();
  for (size_t i = 0; i < count; ++i) {
    if (!translator_.Covers(phi_->row(old_n + i))) return false;
  }
  // One contiguous kernel call over the appended range, straight into
  // the tail of keys_: bit-identical to the per-row RawKey maintenance
  // path and the Rebuild bulk path, so a batch-appended index and a
  // rebuilt one carry the same keys.
  keys_.resize(old_n + count);
  ids_.resize(old_n + count);
  kernels::Ops().dot_range(signed_normal_.data(), signed_normal_.size(),
                           phi_->data(), phi_->dim(), old_n, count,
                           key_shift_, keys_.data() + old_n);
  // The same O(n + k log k) splice UpdateBatch uses, with the existing
  // run already compact (nothing was displaced). The result is identical
  // to a Rebuild (machine-checked by ingest_test and the
  // update_batch_test append-then-update case).
  std::vector<SortEntry> fresh(count);
  for (size_t i = 0; i < count; ++i) {
    fresh[i] = {keys_[old_n + i], static_cast<uint32_t>(old_n + i)};
  }
  SpliceSorted(old_n, &fresh);
  return true;
}

void PlanarIndex::SpliceSorted(size_t kept, std::vector<SortEntry>* fresh) {
  PLANAR_DCHECK(kept + fresh->size() == keys_.size());
  // Sort the fresh entries, then backward-merge the two sorted runs in
  // place. The (key, id) tie order matches a full re-sort exactly.
  SortEntries(fresh, options_.build_threads);
  size_t a = kept;           // end of the kept run
  size_t b = fresh->size();  // end of the fresh run
  size_t out = keys_.size();  // write cursor, one past
  while (b > 0) {
    const SortEntry& fb = (*fresh)[b - 1];
    if (a > 0 && (keys_[a - 1] > fb.key ||
                  (keys_[a - 1] == fb.key && ids_[a - 1] > fb.id))) {
      --a;
      --out;
      keys_[out] = keys_[a];
      ids_[out] = ids_[a];
    } else {
      --b;
      --out;
      keys_[out] = fb.key;
      ids_[out] = fb.id;
    }
  }
  RefreshSearchLayout();
}

PlanarIndex PlanarIndex::CloneFor(const PhiMatrix* phi) const {
  PLANAR_CHECK(phi != nullptr);
  PLANAR_CHECK_EQ(phi->size(), phi_->size());
  PlanarIndex copy;
  copy.phi_ = phi;
  copy.options_ = options_;
  copy.translator_ = translator_;
  copy.normal_ = normal_;
  copy.signed_normal_ = signed_normal_;
  copy.key_shift_ = key_shift_;
  copy.keys_ = keys_;
  copy.ids_ = ids_;
  copy.cdf_ = cdf_;
  // agg-ok: wholesale copy of prefix arrays built by the canonical
  // helper; no values are recomputed.
  copy.payload_prefix_ = payload_prefix_;
  return copy;
}

size_t PlanarIndex::MemoryUsage() const {
  size_t total = sizeof(*this);
  total += keys_.capacity() * sizeof(double);
  total += ids_.capacity() * sizeof(uint32_t);
  total += cdf_.MemoryUsage();
  total += payload_prefix_.MemoryUsage();
  total += (normal_.capacity() + signed_normal_.capacity()) * sizeof(double);
  return total;
}

}  // namespace planar
