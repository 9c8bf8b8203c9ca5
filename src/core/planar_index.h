// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The Planar index (Sections 4 and 6 of the paper): one set of parallel
// hyperplanes with normal `c`, indexing the points by key(x) = <c, psi(x)>
// where psi is phi translated-and-mirrored into the first hyper octant.
//
// Query processing partitions the sorted key list into three rank ranges
// by two binary searches:
//
//   prefix  [0, smaller_end)   keys <=  b'/rmax + C0min  (SI)
//   middle  [smaller_end, larger_begin)                  (II, verified)
//   suffix  [larger_begin, n)  keys  >  b'/rmin + C0max  (LI)
//
// with rmax/rmin = max/min over active axes of a~_i / c_i and C0min/C0max
// correcting for axes whose query parameter is zero. For a <=-query the
// prefix is accepted outright and the suffix rejected outright
// (Observations 1 and 2); for a >=-query the roles swap. Only the middle
// range ever evaluates the scalar product.

#ifndef PLANAR_CORE_PLANAR_INDEX_H_
#define PLANAR_CORE_PLANAR_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"
#include "core/aggregate.h"
#include "core/query.h"
#include "core/row_matrix.h"
#include "core/sort_util.h"
#include "core/topk.h"
#include "core/translation.h"
#include "geometry/octant.h"
#include "learn/learned_cdf.h"

namespace planar {

struct VerifySource;

/// Per-query bookkeeping: how many points were pruned without evaluating
/// the scalar product (the quantity behind Figures 9 and 10).
struct QueryStats {
  size_t num_points = 0;          ///< points considered (n)
  size_t accepted_directly = 0;   ///< accepted without evaluation
  size_t rejected_directly = 0;   ///< rejected without evaluation
  size_t verified = 0;            ///< scalar products evaluated (|II|)
  size_t result_size = 0;         ///< matching points reported
  int index_used = -1;            ///< set-level: which index served; -1 = scan

  /// Fraction of points accepted or rejected without evaluation.
  double PruningFraction() const {
    if (num_points == 0) return 1.0;
    return static_cast<double>(accepted_directly + rejected_directly) /
           static_cast<double>(num_points);
  }
};

/// Result of an inequality query: matching row ids (in no particular
/// order) plus statistics.
struct InequalityResult {
  std::vector<uint32_t> ids;
  QueryStats stats;
};

/// Acceptable bound gap for approximate COUNT/SUM queries. The allowed
/// gap is max(absolute, relative * scale), where scale is the point
/// count n for COUNT and the total absolute payload for SUM. Both zero
/// (the default) demands an exact answer.
struct CountTolerance {
  double absolute = 0.0;
  double relative = 0.0;

  /// The largest acceptable gap at the given scale (>= 0; non-finite or
  /// negative inputs clamp to 0, i.e. exact).
  double Allowed(double scale) const {
    const double abs_ok = absolute > 0.0 ? absolute : 0.0;
    const double rel_ok = relative > 0.0 ? relative * scale : 0.0;
    const double allowed = abs_ok > rel_ok ? abs_ok : rel_ok;
    return allowed > 0.0 ? allowed : 0.0;
  }
};

/// Result of a COUNT inequality query. The true count always lies in
/// [lower, upper]; `estimate` is a point estimate inside those bounds
/// (the exact count when `exact`). At tolerance 0 the result is exact
/// and bit-equal to ScanInequality(...).ids.size().
struct CountResult {
  size_t lower = 0;
  size_t upper = 0;
  size_t estimate = 0;
  bool exact = false;            ///< lower == upper (bounds met or refined)
  bool refined = false;          ///< the II was (partially) streamed
  bool model_estimated = false;  ///< estimate came from the learned CDF
  QueryStats stats;

  size_t gap() const { return upper - lower; }
};

/// Result of a SUM/AVG inequality query over the configured payload
/// column. The true sum always lies in [sum_lower, sum_upper]; `sum` is
/// a point estimate inside those bounds (the exact deterministic sum
/// when `exact` — canonical blocked summation, see core/aggregate.h).
/// The COUNT bounds for the same predicate ride along in `count`.
struct AggregateResult {
  double sum_lower = 0.0;
  double sum_upper = 0.0;
  double sum = 0.0;
  bool exact = false;
  bool refined = false;
  CountResult count;

  /// Estimated average (exact when both sum and count are exact); 0 over
  /// an empty match set.
  double Average() const {
    return count.estimate == 0 ? 0.0 : sum / static_cast<double>(count.estimate);
  }
};

/// Statistics of a top-k query (Table 3 reports checked/total).
struct TopKStats {
  size_t num_points = 0;
  size_t verified_intermediate = 0;  ///< II points evaluated
  size_t scanned_accept_region = 0;  ///< directly-satisfying points evaluated
  bool early_terminated = false;     ///< lower-bound pruning fired
  int index_used = -1;

  /// Points whose scalar product was evaluated.
  size_t checked() const {
    return verified_intermediate + scanned_accept_region;
  }
};

/// Result of a top-k nearest neighbor query: up to k satisfying points in
/// ascending hyperplane distance.
struct TopKResult {
  std::vector<Neighbor> neighbors;
  TopKStats stats;
};

/// Construction options for a Planar index.
struct PlanarIndexOptions {
  /// Translation slack (see Translator::Options).
  Translator::Options translation;

  /// Relative floating-point guard band. Points whose key lies within the
  /// band of an interval boundary are pushed into the intermediate
  /// interval and verified exactly, so rounding in the key computation can
  /// never mis-accept or mis-reject a point.
  double epsilon_band = 1e-9;

  /// Axis exclusion (an extension of the paper's zero-parameter-axis
  /// remark): axes whose ratio a~_i / c_i is an extreme outlier widen the
  /// intermediate interval enormously; bounding their contribution by the
  /// per-axis psi range instead (the same treatment zero axes get) often
  /// shrinks it. At query time the exclusion set minimizing the interval
  /// width is chosen greedily over ratio-order prefixes/suffixes in
  /// O(d'^2). Sound for any choice; disable to reproduce the paper's
  /// intervals verbatim.
  bool enable_axis_exclusion = true;

  /// Payload column for SUM/AVG aggregate queries: an index into the phi
  /// matrix columns, or -1 (the default) for no payload. When set, every
  /// RefreshSearchLayout rebuilds rank-ordered prefix-aggregate arrays
  /// (core/aggregate.h) over that column, and AggregateInequality
  /// answers O(log n) SUM bounds / exact refined sums. Not serialized
  /// (a loaded set must be reconfigured).
  int payload_column = -1;

  /// Build/Rebuild parallelism (1 = serial, 0 = hardware concurrency,
  /// n = n threads): key construction shards the dot_range kernel over
  /// contiguous row ranges and the (key, id) sort runs through
  /// core/sort_util's deterministic parallel sort, both of which are
  /// bit-identical to the serial path for any thread count. Matrices
  /// below kParallelBuildMinRows always build serially. Leave at 1 when
  /// an enclosing layer already parallelizes across indices
  /// (IndexSetOptions::build_threads) — nesting the two oversubscribes.
  size_t build_threads = 1;
};

/// Smallest matrix worth building with threads; below this, spawn/join
/// costs more than the key computation and sort combined. The set-level
/// build fan-out (IndexSetOptions::build_threads) applies the same
/// cutoff to the rows of all the sets it builds together.
inline constexpr size_t kParallelBuildMinRows = 16384;

/// Largest learned-CDF fit error worth probing: the probe window is
/// 2 * (max_error + 2) keys, so past this budget the windowed
/// std::upper_bound stops beating the flat std::upper_bound over the
/// whole key array and the fit is discarded at build (the fallback
/// contract of DESIGN.md 5k).
inline constexpr size_t kLearnedCdfMaxErrorBudget = 512;

/// One Planar index over an externally-owned phi matrix.
///
/// Lifetime: the index holds a pointer to the PhiMatrix; the matrix must
/// outlive the index and must only be mutated through the maintenance
/// calls (Update / NotifyAppend) or a Rebuild must follow.
class PlanarIndex {
 public:
  /// Rank-range boundaries computed for a query (see file comment).
  struct Intervals {
    size_t smaller_end = 0;
    size_t larger_begin = 0;

    /// Points needing scalar-product evaluation (|II|).
    size_t intermediate() const { return larger_begin - smaller_end; }
  };

  PlanarIndex(PlanarIndex&&) = default;
  PlanarIndex& operator=(PlanarIndex&&) = default;
  PlanarIndex(const PlanarIndex&) = delete;
  PlanarIndex& operator=(const PlanarIndex&) = delete;

  /// Builds an index for the given octant. `normal` is the mirrored-space
  /// normal vector: every entry strictly positive, entry i corresponding
  /// to |a_i| of the expected queries (equivalently, the original-space
  /// normal is sign(O, i) * normal[i]). Requires a non-empty matrix with
  /// phi->dim() == normal.size() == octant.dim().
  static Result<PlanarIndex> Build(
      const PhiMatrix* phi, std::vector<double> normal, const Octant& octant,
      const PlanarIndexOptions& options = PlanarIndexOptions());

  /// Convenience: Build with the first hyper octant (all-positive
  /// parameters, all data already non-negative or translated).
  static Result<PlanarIndex> BuildFirstOctant(
      const PhiMatrix* phi, std::vector<double> normal,
      const PlanarIndexOptions& options = PlanarIndexOptions());

  /// True iff this index can answer `q` exactly: dimensions match and
  /// sign(a_i) equals the index octant's sign on every axis with a_i != 0.
  bool CanServe(const NormalizedQuery& q) const;

  /// Problem 1: all points satisfying the query. Fails with
  /// FailedPrecondition when the query is octant-incompatible.
  Result<InequalityResult> Inequality(const ScalarProductQuery& q) const;
  Result<InequalityResult> Inequality(const NormalizedQuery& q) const;

  /// Deadline-aware variant: the verification loops poll `deadline` every
  /// kDeadlineCheckInterval rows and fail with kDeadlineExceeded instead
  /// of finishing, so a serving layer can bound per-request work. An
  /// infinite deadline adds no clock reads.
  Result<InequalityResult> Inequality(const NormalizedQuery& q,
                                      const Deadline& deadline) const;

  /// COUNT of the points satisfying the query, without materializing
  /// ids. The [lower, upper] bounds come from the two SI/LI boundary
  /// searches alone — O(log n), no phi access. When the gap exceeds
  /// `tolerance` (max of its absolute and relative-to-n readings), the
  /// intermediate interval is streamed through the same f64 verify
  /// kernels as Inequality — counting accepts instead of storing ids,
  /// deadline-polled per block, stopping early once the unresolved
  /// remainder fits the tolerance. At tolerance 0
  /// the count is exact and bit-equal to Inequality(...).ids.size().
  Result<CountResult> CountInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance()) const;
  Result<CountResult> CountInequality(const NormalizedQuery& q,
                                      const CountTolerance& tolerance,
                                      const Deadline& deadline) const;

  /// SUM over the configured payload column (PlanarIndexOptions::
  /// payload_column) of the points satisfying the query, plus the COUNT
  /// bounds for the same predicate. Bounds come from the rank-ordered
  /// prefix-aggregate arrays (exact accepted-region total, positive/
  /// negative-part envelope over the II) in O(log n); `tolerance` reads
  /// its absolute field in payload units and its relative field against
  /// the total absolute payload. Refinement streams the II exactly like
  /// CountInequality, accumulating accepted payloads in canonical
  /// blocked summation — deterministic for a fixed index state. Fails
  /// with FailedPrecondition when no payload column is configured.
  Result<AggregateResult> AggregateInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance()) const;
  Result<AggregateResult> AggregateInequality(const NormalizedQuery& q,
                                              const CountTolerance& tolerance,
                                              const Deadline& deadline) const;

  /// True when a payload column is configured and its prefix aggregates
  /// are live.
  bool has_payload() const { return !payload_prefix_.empty(); }

  /// The learned-CDF sidecar (empty when the key array is below
  /// LearnedCdf's min_keys or the fit blew the error budget). Exposed for
  /// tests and benches.
  const LearnedCdf& learned_cdf() const { return cdf_; }

  /// Problem 2: the k satisfying points nearest to the query hyperplane.
  Result<TopKResult> TopK(const ScalarProductQuery& q, size_t k) const;
  Result<TopKResult> TopK(const NormalizedQuery& q, size_t k) const;

  /// Deadline-aware variant (see Inequality); both the intermediate
  /// verification and the accept-region walk poll the deadline.
  Result<TopKResult> TopK(const NormalizedQuery& q, size_t k,
                          const Deadline& deadline) const;

  /// The rank-range boundaries for `q` (exposed for tests, ablations, and
  /// callers that run their own candidate verification — see
  /// CollectRange).
  Result<Intervals> ComputeIntervals(const NormalizedQuery& q) const;

  /// Appends the row ids with ranks in [begin, end) to `out`, in rank
  /// order. Combined with ComputeIntervals this lets a caller verify the
  /// intermediate interval with a cheaper domain-specific predicate than
  /// the generic scalar product (e.g. a 2D distance check in the
  /// moving-object workloads). Requires begin <= end <= size().
  void CollectRange(size_t begin, size_t end,
                    std::vector<uint32_t>* out) const;

  /// Zero-copy view of the rank-ordered row ids (RankIds()[r] = row with
  /// rank r). Invalidated by any maintenance call.
  const uint32_t* RankIds() const { return ids_.data(); }

  /// Zero-copy view of the ascending key array (RankKeys()[r] = key of
  /// the row with rank r, i.e. of RankIds()[r]). Invalidated by any
  /// maintenance call.
  const double* RankKeys() const { return keys_.data(); }

  /// A human-inspectable account of how this index would process `q`:
  /// thresholds, interval boundaries, exclusion decisions, and the exact
  /// candidate counts. For debugging, optimizer integration, and the
  /// EXPLAIN-style output of the CLI.
  struct Explanation {
    bool can_serve = false;
    bool degenerate = false;       ///< all-zero query normal
    double b_prime = 0.0;          ///< mirrored offset b'
    double rmin = 0.0;             ///< min included ratio |a_i| / c_i
    double rmax = 0.0;             ///< max included ratio
    size_t excluded_axes = 0;      ///< axes bounded by their psi range
    double low_cut = 0.0;          ///< accept-below key threshold
    double high_cut = 0.0;         ///< reject-above key threshold
    size_t num_points = 0;
    size_t smaller_end = 0;        ///< |SI|
    size_t larger_begin = 0;       ///< n - |LI|
    Comparison cmp = Comparison::kLessEqual;

    /// Points needing scalar-product evaluation.
    size_t intermediate() const { return larger_begin - smaller_end; }
    /// One-paragraph rendering.
    std::string ToString() const;
  };

  /// Explains query processing without running it. O(d'^2 + log n).
  Explanation Explain(const NormalizedQuery& q) const;

  /// The max-stretch score of Problem 3 (volume heuristic, Section 5.1.1);
  /// smaller is better. Requires CanServe(q).
  double MaxStretch(const NormalizedQuery& q) const;

  /// Cosine of the angle between the query normal and the index normal in
  /// mirrored space (Section 5.1.2); larger is better. Requires
  /// CanServe(q).
  double CosAngle(const NormalizedQuery& q) const;

  /// Maintenance: row `row` of the phi matrix was overwritten. Returns
  /// false when the new value escapes the translation bounds, in which
  /// case the caller must Rebuild() before querying again.
  bool Update(uint32_t row);

  /// Maintenance: the given rows of the phi matrix were overwritten.
  /// The k touched entries are recomputed, sorted, and merged back in one
  /// O(n + k log k) pass (identical result to a full Rebuild). Returns
  /// false when any new row escapes the translation bounds — the caller
  /// must Rebuild() before querying again.
  bool UpdateBatch(const std::vector<uint32_t>& rows);

  /// Maintenance: a new row was appended to the phi matrix; `row` must be
  /// phi->size() - 1. Same contract as Update.
  bool NotifyAppend(uint32_t row);

  /// Maintenance: `count` new rows were appended to the phi matrix
  /// starting at row `first_row`, which must equal the pre-append size.
  /// The appended analogue of UpdateBatch: the new keys are computed with
  /// one batched kernel call, sorted through SortEntries, and backward-
  /// merged into the sorted run in place — O(n + k log k), with a result
  /// identical to a full Rebuild. This is the merge path of the
  /// ingest subsystem (src/ingest). Returns false when any new row
  /// escapes the translation bounds — the caller must Rebuild() before
  /// querying again.
  bool AppendBatch(uint32_t first_row, size_t count);

  /// Recomputes the translation and every key from the current matrix.
  void Rebuild();

  /// Deep copy of this index rebound to `phi`, which must hold exactly
  /// the rows this index was built over (same values, same order). The
  /// copy shares no storage with the original, so one side can keep
  /// serving queries while the other takes maintenance calls — the MVCC
  /// snapshot-clone step of the ingest merge path (clone the installed
  /// set, AppendBatch the delta, install the result).
  PlanarIndex CloneFor(const PhiMatrix* phi) const;

  /// The mirrored-space normal (all entries > 0).
  const std::vector<double>& normal() const { return normal_; }
  /// The octant this index serves.
  const Octant& octant() const { return translator_.octant(); }
  /// The translation in effect.
  const Translator& translator() const { return translator_; }
  /// Number of indexed points.
  size_t size() const { return ids_.size(); }

  /// Heap footprint of the index structure in bytes (excludes the shared
  /// phi matrix).
  size_t MemoryUsage() const;

 private:
  // PlanarIndexSet plans each query once during index selection and
  // serves it from that plan through the Run* calls below.
  friend class PlanarIndexSet;

  // Thresholds and per-query scalars shared by query paths. With the
  // included axis set A and excluded set E (zero axes always in E):
  //   <a~, psi>  <=  rmax * (key - c0min) + emax
  //   <a~, psi>  >=  rmin * (key - c0max) + emin
  struct Prepared {
    double b_prime = 0.0;
    double rmax = 0.0;   // max over included axes of a~_i / c_i
    double rmin = 0.0;   // min over included axes of a~_i / c_i
    double c0min = 0.0;  // sum over excluded axes of c_i * psi_min_i
    double c0max = 0.0;  // sum over excluded axes of c_i * psi_max_i
    double emin = 0.0;   // sum over excluded axes of a~_i * psi_min_i
    double emax = 0.0;   // sum over excluded axes of a~_i * psi_max_i
    double low_cut = 0.0;   // keys <= low_cut: scalar product surely <= b
    double high_cut = 0.0;  // keys >  high_cut: scalar product surely > b
    size_t excluded_axes = 0;  // axes bounded by psi range (incl. zeros)
    bool all_axes_zero = false;
  };

  // A query's plan on this index: its prepared key cuts and the rank
  // boundaries they select. Built once per query and read by the
  // scan-fallback test, EXPLAIN and the serve call. A degenerate query's
  // plan decides every point outright ({n, n}, nothing prepared).
  struct Plan {
    Prepared prepared;
    Intervals intervals;
  };

  // Working storage for Prepare: the ratio-sorted active axes and their
  // prefix sums. Up to kInlineAxes axes live inside the object, so a
  // stack scratch plans a low-dimensional query without touching the
  // heap; a wider query takes one heap buffer, which every later plan
  // made through the same scratch (every candidate of one index
  // selection) reuses.
  class PlanScratch {
   public:
    PlanScratch() = default;
    PlanScratch(const PlanScratch&) = delete;
    PlanScratch& operator=(const PlanScratch&) = delete;

   private:
    friend class PlanarIndex;
    struct Axis {
      double ratio;      // a~_i / c_i
      double c_psi_min;  // c_i * psi_min_i
      double c_psi_max;
      double a_psi_min;  // a~_i * psi_min_i
      double a_psi_max;
    };
    // Prefix sums over ratio order of the four psi terms.
    struct Prefix {
      double c_min;
      double c_max;
      double a_min;
      double a_max;
    };
    static constexpr size_t kInlineAxes = 16;

    // Points axes_/prefix_ at room for `dim` axes and dim + 1 prefix rows.
    void Reserve(size_t dim);

    Axis inline_axes_[kInlineAxes];
    Prefix inline_prefix_[kInlineAxes + 1];
    std::vector<Axis> heap_axes_;
    std::vector<Prefix> heap_prefix_;
    Axis* axes_ = inline_axes_;
    Prefix* prefix_ = inline_prefix_;
  };

  // A query's plan on this index, scored for interval-count selection
  // before its boundary searches run. With a learned CDF the score is
  // the predicted |II|, PredictRank(high_cut) - PredictRank(low_cut),
  // and no key is probed; the plan's intervals wait for Finish. With no
  // model (fewer than LearnedCdf::Options::min_keys keys, or a fit over
  // kLearnedCdfMaxErrorBudget) the plan is complete and the score is
  // its exact |II|. Each predicted rank lies within max_error + 1 of
  // its true rank, so |score - |II|| <= 2 (max_error + 1).
  struct Candidate {
    Plan plan;
    double low_rank = 0.0;   // predicted ranks of the two cuts
    double high_rank = 0.0;
    double score = 0.0;
    bool complete = false;  // plan.intervals are exact
  };

  PlanarIndex() = default;

  Prepared Prepare(const NormalizedQuery& q, PlanScratch* scratch) const;
  // The candidate of a query this index can serve (finite, CanServe).
  Candidate Score(const NormalizedQuery& q, PlanScratch* scratch) const;
  // The candidate's complete plan: the two exact boundary searches, each
  // started from the rank Score predicted.
  Plan Finish(const Candidate& c) const;
  // The plan of a query this index can serve: Finish(Score(q)).
  Plan MakePlan(const NormalizedQuery& q, PlanScratch* scratch) const;
  // The plan a single-index entry point serves from: empty when this
  // index cannot serve `q`, which every Run* rejects before reading it.
  Plan StandalonePlan(const NormalizedQuery& q) const;
  // Finiteness and octant compatibility, the checks every query passes
  // before its plan is read.
  Status CheckServable(const NormalizedQuery& q) const;
  Explanation Describe(const NormalizedQuery& q, const Plan& plan) const;
  double RawKey(const double* phi_row) const;
  // The upper-bound rank of `key` in keys_. `pred` is the learned CDF's
  // PredictRank(key), which centres the windowed search; it is not read
  // when there is no model.
  size_t RankLessEqual(double key, double pred) const;
  void InsertKey(double key, uint32_t row);
  // keys_/ids_ hold a sorted run in [0, kept) and room for `fresh` after
  // it: sorts `fresh`, merges it in, and refreshes the sidecars.
  void SpliceSorted(size_t kept, std::vector<SortEntry>* fresh);
  // Rebuilds the search and aggregate sidecars from keys_/ids_ after any
  // mutation of the sorted arrays.
  void RefreshSearchLayout();
  // The rank ranges a plan splits this index into for a query: ranks
  // [accept_begin, accept_end) satisfy it outright, the II [ii_begin,
  // ii_end) is verified, and the rest fail outright. A degenerate query
  // is decided outright: every rank accepted, or every rank rejected.
  struct Regions {
    size_t n = 0;
    bool le = true;  // Comparison::kLessEqual
    bool degenerate = false;  // all-zero a: decided outright
    size_t accept_begin = 0;
    size_t accept_end = 0;
    size_t ii_begin = 0;
    size_t ii_end = 0;

    size_t accepted() const { return accept_end - accept_begin; }
    size_t ii() const { return ii_end - ii_begin; }
    size_t rejected() const { return n - accepted() - ii(); }
  };
  // The preamble of every Run* call: CheckServable, then the regions of
  // `plan`, which must be this index's plan of `q`.
  Result<Regions> Split(const NormalizedQuery& q, const Plan& plan) const;
  // The II's rank-id span, as VerifyRows reads it.
  VerifySource IISource(const Regions& r) const;
  // The serve calls: each runs every check of its public entry point,
  // then answers from `plan` through the one verify loop (core/scan.h).
  Result<InequalityResult> RunInequality(const NormalizedQuery& q,
                                         const Plan& plan,
                                         const Deadline& deadline) const;
  Result<CountResult> RunCount(const NormalizedQuery& q, const Plan& plan,
                               const CountTolerance& tolerance,
                               const Deadline& deadline) const;
  Result<AggregateResult> RunAggregate(const NormalizedQuery& q,
                                       const Plan& plan,
                                       const CountTolerance& tolerance,
                                       const Deadline& deadline) const;
  Result<TopKResult> RunTopK(const NormalizedQuery& q, const Plan& plan,
                             size_t k, const Deadline& deadline) const;

  const PhiMatrix* phi_ = nullptr;
  PlanarIndexOptions options_;
  Translator translator_;
  std::vector<double> normal_;         // mirrored-space, positive
  std::vector<double> signed_normal_;  // sign(O, i) * normal_[i]
  double key_shift_ = 0.0;             // sum_i normal_[i] * delta_i

  // The sorted key list: the only key store, read by boundary search, II
  // range scans, serialization, maintenance and ValidateIndex.
  std::vector<double> keys_;    // ascending
  std::vector<uint32_t> ids_;   // ids_[r] = row with rank r
  // Learned key->rank CDF sidecar (DESIGN.md section 5k): predict-then-
  // probe boundary search (probe a +/-(max_error + 2) window, validate
  // against keys_, fall back to the flat std::upper_bound on any
  // mismatch) and model-based COUNT estimates between the sound [SI, LI]
  // bounds. Rebuilt at every RefreshSearchLayout, never serialized,
  // carries no authority (every probe is validated, every estimate
  // bounded).
  LearnedCdf cdf_;
  // Rank-ordered prefix aggregates over the payload column (empty unless
  // options_.payload_column >= 0). Rebuilt
  // with the search layout by the canonical helper (core/aggregate.h).
  PrefixAggregates payload_prefix_;
};

}  // namespace planar

#endif  // PLANAR_CORE_PLANAR_INDEX_H_
