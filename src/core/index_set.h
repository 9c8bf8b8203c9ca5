// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Multiple Planar indices (Section 5 of the paper): a budget of normals is
// sampled from the known query-parameter domains at preprocessing time
// (Section 5.2), and at query time the best index is chosen in O(r d')
// without touching the data (Section 5.1) — either by minimizing the
// volume/stretch of the intermediate interval or by minimizing the angle
// to the query hyperplane — or, by default, by the fewest intermediate
// points each index's learned key CDF predicts. Queries no index can
// serve fall back to a sequential scan, so the set is always exact.

#ifndef PLANAR_CORE_INDEX_SET_H_
#define PLANAR_CORE_INDEX_SET_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/planar_index.h"
#include "core/query.h"
#include "core/row_matrix.h"
#include "core/scan.h"

namespace planar {

/// The known domain of one query parameter a_i (paper, Section 4.1). The
/// interval is closed and must not straddle zero: the sign of the domain
/// fixes the hyper octant the indices are built for.
struct ParameterDomain {
  double lo = 0.0;
  double hi = 0.0;
};

/// The largest index budget PlanarIndexSet::Build accepts. Sampling
/// deduplicates every new normal against all accepted ones, so the cost
/// grows with the square of the budget; in-tree callers use at most 200.
inline constexpr size_t kMaxIndexBudget = 4096;

/// Options for building a PlanarIndexSet.
struct IndexSetOptions {
  /// Best-index selection strategy (Section 5.1 of the paper, plus this
  /// library's exact variant).
  enum class Selector {
    kStretch,  ///< volume / max-stretch minimization (paper's default)
    kAngle,    ///< angle minimization
    /// Fewest points in the intermediate interval. Each candidate is
    /// scored by its learned CDF's predicted |II| from the prepared key
    /// cuts, with no key probe; only the winner runs the two exact
    /// boundary searches — O(r d'^2 + log n) total. An index with no
    /// model (below LearnedCdf::Options::min_keys keys, or a fit over
    /// kLearnedCdfMaxErrorBudget) is scored by its exact |II|. A
    /// prediction is within 2 (max_error + 1) of the exact |II|, so the
    /// winner's |II| is at most the exact minimum + 4 (max_error + 2).
    /// (The paper rules out "counting the points in the intermediate
    /// interval" as a chicken-and-egg problem; the sorted key list and
    /// its CDF model count them without enumeration.)
    kIntervalCount,
  };

  /// Number of indices to sample (the paper's budget b), in
  /// [1, kMaxIndexBudget].
  size_t budget = 10;
  Selector selector = Selector::kIntervalCount;
  PlanarIndexOptions index_options;
  /// Two sampled normals closer than this (on |cos|) are redundant and
  /// the later one is discarded (Section 5.2).
  double dedup_tolerance = 1e-6;
  /// Sampling seed (index sets are deterministic given the seed).
  uint64_t seed = 42;
  /// Hybrid worst-case guard: when even the best index leaves more than
  /// this fraction of the points in the intermediate interval, answer by
  /// sequential scan instead — random access over a near-total interval
  /// costs more than a contiguous scan (the paper observes exactly this
  /// effect at high dimensionality and query randomness, Section 7.2.2).
  /// 1.0 disables the fallback.
  double scan_fallback_fraction = 0.85;

  /// The one set-level build width (0 = hardware concurrency, 1 =
  /// serial, n = at most n threads): Build, BuildWithNormals, BuildEach
  /// (and through it ShardedIndexSet::Build, every shard's indices in
  /// one fan-out) build their indices across this many threads of the
  /// shared ThreadPool. Sets of fewer than kParallelBuildMinRows rows
  /// (all shards together) build serially: there a pool handoff costs
  /// more than the builds it would split.
  /// Normal sampling and dedup stay serial (they are RNG-sequential and
  /// cheap), so the accepted normals, their order, and every selection
  /// score are identical to the serial build; per-index key computation
  /// uses the same dot_range kernel either way, so the built indices —
  /// and their serialized v2 blobs — are bit-identical for any width or
  /// shard count (machine-checked by tests/build_determinism_test.cc).
  /// Not persisted by SaveIndexSet: it is a build-machine knob, not part
  /// of the index definition. PlanarIndexOptions::build_threads
  /// (intra-index sort parallelism) applies inside each index build;
  /// raise it only with this width at 1, or the two fan-outs nest.
  size_t build_threads = 0;
};

/// A budget of Planar indices over one owned phi matrix.
class PlanarIndexSet {
 public:
  PlanarIndexSet(PlanarIndexSet&&) = default;
  PlanarIndexSet& operator=(PlanarIndexSet&&) = default;
  PlanarIndexSet(const PlanarIndexSet&) = delete;
  PlanarIndexSet& operator=(const PlanarIndexSet&) = delete;

  /// One (mirrored-space normal, octant) index definition.
  using IndexDefinition = std::pair<std::vector<double>, Octant>;

  /// Builds `options.budget` indices with normals sampled uniformly from
  /// `domains` (one domain per phi output axis), deduplicating parallel
  /// normals: SampleDefinitions, then BuildEach. Takes ownership of the
  /// matrix.
  static Result<PlanarIndexSet> Build(
      PhiMatrix phi, const std::vector<ParameterDomain>& domains,
      const IndexSetOptions& options = IndexSetOptions());

  /// The definitions Build samples for `phi`: up to options.budget
  /// deduplicated normals in acceptance order, all for the octant the
  /// domain signs fix. Validates what Build validates but reads only
  /// phi's shape, so every matrix of one width gets the same definitions
  /// from the same domains and options — ShardedIndexSet::Build samples
  /// once for all its shards.
  static Result<std::vector<IndexDefinition>> SampleDefinitions(
      const PhiMatrix& phi, const std::vector<ParameterDomain>& domains,
      const IndexSetOptions& options);

  /// Builds with explicitly chosen mirrored-space normals (all entries
  /// strictly positive) for the given octant. Useful when good normals are
  /// known, e.g. one per anticipated time instant in moving-object
  /// workloads.
  static Result<PlanarIndexSet> BuildWithNormals(
      PhiMatrix phi, const std::vector<std::vector<double>>& normals,
      const Octant& octant, const IndexSetOptions& options = IndexSetOptions());

  /// Builds one set per matrix of `phis`, each holding `definitions` in
  /// order — the one build path under Build, BuildWithNormals, snapshot
  /// loading and ShardedIndexSet::Build. Every (set, definition) pair
  /// builds in one flat fan-out across options.build_threads, so the
  /// width spans all the sets; each set is bit-identical to a serial
  /// build of its matrix alone. Fails when any matrix is empty or
  /// `definitions` is.
  static Result<std::vector<PlanarIndexSet>> BuildEach(
      std::vector<PhiMatrix> phis,
      const std::vector<IndexDefinition>& definitions,
      const IndexSetOptions& options);

  /// Problem 1 via the best index; falls back to a sequential scan when no
  /// index can serve the query (stats.index_used == -1 then).
  InequalityResult Inequality(const ScalarProductQuery& q) const;

  /// Deadline-aware variant for serving layers: both the II verification
  /// loop of the chosen index and the scan fallback poll `deadline` and
  /// fail with kDeadlineExceeded instead of finishing. An infinite
  /// deadline behaves exactly like the plain overload.
  Result<InequalityResult> Inequality(const ScalarProductQuery& q,
                                      const Deadline& deadline) const;

  /// COUNT of the matching points without materializing ids: the best
  /// index answers O(log n) [lower, upper] bounds and refines only past
  /// `tolerance` (see PlanarIndex::CountInequality). Falls back to an
  /// exact full-scan count when no index can serve or the hybrid scan
  /// guard fires (stats.index_used == -1 then). At tolerance 0 the count
  /// is exact and bit-equal to Inequality(...).ids.size().
  Result<CountResult> CountInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// SUM/AVG over the configured payload column
  /// (options().index_options.payload_column), with COUNT bounds riding
  /// along (see PlanarIndex::AggregateInequality). Falls back to the
  /// exact full-scan aggregate when no index can serve or the hybrid
  /// scan guard fires.
  Result<AggregateResult> AggregateInequality(
      const ScalarProductQuery& q,
      const CountTolerance& tolerance = CountTolerance(),
      const Deadline& deadline = Deadline::Infinite()) const;

  /// Problem 2 via the best index, with the same scan fallback.
  Result<TopKResult> TopK(const ScalarProductQuery& q, size_t k) const;

  /// Deadline-aware variant (see Inequality).
  Result<TopKResult> TopK(const ScalarProductQuery& q, size_t k,
                          const Deadline& deadline) const;

  /// The index the selection heuristic picks for `q`, or -1 when no index
  /// is octant-compatible or `q` is not finite. Probes no key array:
  /// O(r d') for stretch and angle, O(r d'^2) for the interval count.
  int SelectBestIndex(const NormalizedQuery& q) const;

  /// EXPLAIN output for `q`: which index would serve it, whether the
  /// hybrid scan fallback would fire, and the serving index's thresholds
  /// and candidate counts.
  struct Explanation {
    int index_used = -1;      ///< -1: sequential scan
    bool scan_fallback = false;  ///< fallback fired despite a usable index
    PlanarIndex::Explanation index_explanation;
    std::string ToString() const;
  };
  Explanation Explain(const ScalarProductQuery& q) const;

  /// Exact selectivity bounds for `q` without evaluating any scalar
  /// product: the true match count lies in
  /// [accepted_outright, accepted_outright + intermediate] (both as
  /// fractions of the dataset). Useful for optimizer integration. Returns
  /// {0, 1} when only a scan could answer.
  struct SelectivityBounds {
    double lo = 0.0;
    double hi = 1.0;
  };
  SelectivityBounds EstimateSelectivity(const ScalarProductQuery& q) const;

  /// Adds one more index with the given mirrored-space normal for octant
  /// `octant` (e.g. the time-instant indices of a pair-intersection set).
  Status AddIndex(std::vector<double> normal, const Octant& octant);

  /// Overwrites one row of phi and maintains every index. Indices whose
  /// translation no longer covers the row are rebuilt transparently.
  Status UpdateRow(uint32_t row, const double* phi_values);

  /// Appends one row of phi and maintains every index.
  Status AppendRow(const double* phi_values);

  /// Appends `count` rows of phi (row-major, size() * dim doubles) and
  /// maintains every index with one batched backward merge apiece —
  /// O(r (n + k log k)) total instead of AppendRow's O(r k log n). The
  /// bulk half of the ingest merge path (src/ingest): the merger clones
  /// the installed set, appends the drained delta rows here, and installs
  /// the result. Indices whose translation cannot absorb a new row are
  /// rebuilt transparently (rebuild_count() advances), so the result is
  /// always exact.
  Status AppendRows(const double* rows, size_t count);

  /// Deep copy sharing no storage with this set, so the copy can take
  /// maintenance calls (AppendRows, UpdateRow) while the original keeps
  /// serving queries behind a Catalog snapshot — the clone step of the
  /// ingest merge.
  PlanarIndexSet Clone() const;

  /// The owned phi matrix.
  const PhiMatrix& phi() const { return *phi_; }
  /// Number of points.
  size_t size() const { return phi_->size(); }
  /// Number of indices held.
  size_t num_indices() const { return indices_.size(); }
  /// Access to an individual index.
  const PlanarIndex& index(size_t i) const { return indices_[i]; }

  /// The options this set was built with.
  const IndexSetOptions& options() const { return options_; }

  /// Cumulative number of transparent index rebuilds triggered by updates.
  size_t rebuild_count() const { return rebuild_count_; }

  /// Heap footprint of all indices plus the owned matrix, in bytes.
  size_t MemoryUsage() const;

  /// Bytes actually streamed by the hot verification paths: the matrix
  /// rows read by II verification / scan plus each index's sorted keys
  /// and row ids. MemoryUsage() is total RAM, sidecars included.
  size_t ResidentBytes() const;

 private:
  explicit PlanarIndexSet(PhiMatrix phi, IndexSetOptions options)
      : phi_(std::make_unique<PhiMatrix>(std::move(phi))),
        options_(options) {}

  // InvalidArgument when `q` has a parameter count other than the phi
  // matrix dimensionality: no index can serve such a query, and the scan
  // fallback would abort on it.
  Status CheckQueryDim(const ScalarProductQuery& q) const;

  // The index selection picked for a query (-1: none can serve) and the
  // query's plan on it, which the fallback test and the serve call read.
  struct Selection {
    int index = -1;
    PlanarIndex::Plan plan;
  };
  // The index SelectBestIndex picks (-1: none can serve or `q` is not
  // finite), with the winning candidate in `winner`. Every candidate is
  // scored through `scratch`; ties go to the lowest index.
  int Choose(const NormalizedQuery& q, PlanarIndex::PlanScratch* scratch,
             PlanarIndex::Candidate* winner) const;
  // Choose plus the winner's exact plan: the interval-count selector
  // finishes the candidate it scored the winner with (the two boundary
  // searches, from the predicted ranks); the stretch and angle selectors
  // plan the winner once, after choosing.
  Selection Select(const NormalizedQuery& q) const;

  // PrefersScan's refine floor for answers that always stream their II:
  // any intermediate interval wider than the scan-fallback fraction
  // diverts.
  static constexpr double kAlwaysRefines =
      -std::numeric_limits<double>::infinity();

  // The hybrid worst-case guard: true when the intermediate interval of
  // `iv` is wider than both `refine_floor` and the scan-fallback fraction
  // of the points.
  bool PrefersScan(const PlanarIndex::Intervals& iv,
                   double refine_floor = kAlwaysRefines) const;

  // The serving route Inequality, CountInequality, AggregateInequality
  // and TopK share: select the best index, divert to
  // `scan()` when none can serve or the winner's plan PrefersScan at
  // `refine_floor`, else answer `serve(index, normalized query, plan)`
  // and stamp index_used.
  template <typename T, typename Scan, typename Serve>
  Result<T> Route(const ScalarProductQuery& q, double refine_floor,
                  const Scan& scan, const Serve& serve) const;

  std::unique_ptr<PhiMatrix> phi_;  // stable address for index back-pointers
  IndexSetOptions options_;
  std::vector<PlanarIndex> indices_;
  size_t rebuild_count_ = 0;
};

}  // namespace planar

#endif  // PLANAR_CORE_INDEX_SET_H_
