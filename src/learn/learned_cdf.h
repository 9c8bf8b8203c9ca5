// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// LearnedCdf: a piecewise-linear fit of the key -> rank CDF of a sorted
// key array (PolyFit-style, see PAPERS.md), used by the planar index
// three ways (DESIGN.md section 5k):
//
//   1. Predict-then-probe boundary search: predict the upper-bound rank
//      of a probe key, then run std::upper_bound on a window of
//      +/- (max_error() + 1) ranks around the prediction. The window
//      bound is sound by monotonicity: the model is continuous and
//      weakly increasing, so for a probe x with true upper-bound rank u,
//      PredictRank(keys[u-1]) <= PredictRank(x) <= PredictRank(keys[u])
//      and both ends are within max_error() of their true rank — hence
//      u lies in [PredictRank(x) - max_error() - 1,
//                 PredictRank(x) + max_error() + 1]. Callers still
//      validate the probed rank against the flat key array and fall back
//      to a flat std::upper_bound over it when validation fails, so
//      answers are identical to std::upper_bound regardless of fit
//      quality.
//
//   2. Model-based approximate counts: PredictRank, clamped to the sound
//      [SI, LI] bounds, is the count estimate reported before any
//      intermediate-interval scan.
//
//   3. Index selection scores: PredictRank(high_cut) -
//      PredictRank(low_cut) is a candidate index's predicted |II|, within
//      2 (max_error() + 1) of the exact count by the bound above. The
//      interval-count selector ranks every candidate by it without a key
//      probe and runs the exact boundary searches on the winner alone.
//
// The model is a sidecar of the sorted key array: rebuilt from it at
// every RefreshSearchLayout, never serialized (blobs stay
// byte-identical), and carrying no authority — every answer it
// influences is validated or bounded by exact structures. It is always
// on; arrays below Options::min_keys simply build none.

#ifndef PLANAR_LEARN_LEARNED_CDF_H_
#define PLANAR_LEARN_LEARNED_CDF_H_

#include <cstddef>
#include <vector>

namespace planar {

/// Piecewise-linear monotone model of rank as a function of key.
class LearnedCdf {
 public:
  struct Options {
    /// Upper bound on linear segments (interpolation nodes - 1). More
    /// segments fit skewed key distributions tighter at ~24 bytes each.
    size_t max_segments = 256;
    /// Key arrays smaller than this build no model (binary search is
    /// already cache-resident there).
    size_t min_keys = 4096;
    /// When non-zero, a fit whose exact max_error exceeds this budget is
    /// discarded (Build leaves the model empty) — the fallback contract:
    /// a model too loose to probe a small window is not worth carrying.
    size_t max_error_budget = 0;
  };

  /// Fits `keys` (ascending, n entries). The fit interpolates
  /// equal-rank-spaced nodes and then measures its exact max error with
  /// one evaluation pass over all keys; degenerate inputs (too few keys,
  /// all-equal keys, non-finite slopes, over-budget error) leave the
  /// model empty.
  void Build(const double* keys, size_t n, const Options& options);
  void Build(const double* keys, size_t n) { Build(keys, n, Options()); }

  void Clear();

  /// True when no usable model is loaded (callers use exact search).
  bool empty() const { return segments_.empty(); }

  /// Number of keys the model was fit over.
  size_t size() const { return n_; }

  /// Predicted upper-bound rank of probe `x`, clamped to [0, size()].
  /// Weakly increasing in x; +/-infinity map to size()/0. Meaningless on
  /// an empty model.
  double PredictRank(double x) const;

  /// Exact max over all fitted keys of |PredictRank(key) - rank|,
  /// rounded up. The probe window half-width is max_error() + 1.
  size_t max_error() const { return max_error_; }

  size_t segments() const { return segments_.size(); }

  size_t MemoryUsage() const {
    return boundaries_.capacity() * sizeof(double) +
           segments_.capacity() * sizeof(Segment);
  }

 private:
  struct Segment {
    double x0 = 0.0;     // segment start key
    double slope = 0.0;  // d rank / d key, > 0
    double rank0 = 0.0;  // rank at x0
  };

  std::vector<double> boundaries_;  // segment start keys, ascending
  std::vector<Segment> segments_;
  size_t n_ = 0;
  size_t max_error_ = 0;
};

}  // namespace planar

#endif  // PLANAR_LEARN_LEARNED_CDF_H_
