// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// End-to-end serving benchmark: shared types. A workload drives an Engine
// through its public API with seeded request streams (closed-loop readers,
// an optional open-loop writer), measures client-side latency from Submit
// to the ready future, and checks a deterministic sample of answers
// against the f64 scan. A traced run additionally times the calls into
// each layer's public functions from this benchmark's own code (probes.cc)
// and records them as spans that share the request id.

#ifndef PLANAR_PERFBENCH_PERFBENCH_H_
#define PLANAR_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/index_set.h"
#include "core/planar_index.h"
#include "core/query.h"
#include "core/row_matrix.h"
#include "core/sharded.h"
#include "engine/catalog.h"
#include "engine/engine.h"
#include "ingest/ingest.h"

namespace planar {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// How a target is served: one PlanarIndexSet, row-range shards, or a
/// PlanarIndexSet under IngestManager (delta overlay + background merge).
enum class Layout { kMonolithic, kSharded, kIngest };

/// One catalog entry: Eq. 18 data (independent, attribute range (1, 100))
/// of `rows` points in `dim` dimensions, queried with RQ = `rq` and
/// inequality parameter `s`.
struct TargetSpec {
  std::string name;
  Layout layout = Layout::kMonolithic;
  size_t rows = 0;
  size_t dim = 0;
  int rq = 0;
  double s = 0.0;
};

/// Request kinds a workload issues (kAppend only from the writer).
enum class Kind { kInequality, kTopK, kCount, kAppend };
inline constexpr int kNumKinds = 4;
const char* KindName(Kind kind);

/// One entry of a reader mix: `weight` of the requests are `kind` on
/// targets[target].
struct MixEntry {
  Kind kind;
  size_t target;
  double weight;
};

struct WorkloadSpec {
  std::string name;
  std::vector<TargetSpec> targets;
  std::vector<MixEntry> mix;
  /// Closed-loop generator threads, one request outstanding each.
  size_t reader_threads = 1;
  size_t topk_k = 10;
  /// Relative tolerance of kCount requests (0 = exact).
  double count_relative_tolerance = 0.0;
  /// Open-loop writer: appends per second of `append_rows` rows to the
  /// kIngest target (0 = no writer).
  double append_rate = 0.0;
  size_t append_rows = 64;
};

/// The workload named `name`; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One request as generated (target index into WorkloadSpec::targets).
struct Op {
  Kind kind = Kind::kInequality;
  size_t target = 0;
  ScalarProductQuery query;
};

/// A response kept for the correctness gate. For the ingest target,
/// [lo_rows, hi_rows) brackets the rows that may be visible to the read:
/// every row id below lo_rows was acknowledged before Submit, and no row
/// id at or above hi_rows had been submitted when the answer arrived.
struct CheckItem {
  Op op;
  EngineResponse response;
  uint64_t lo_rows = 0;
  uint64_t hi_rows = 0;
};

/// One span: [start, end) on the steady clock, named by layer, sharing
/// the request id of the request it belongs to. `parent` indexes the
/// same thread's span buffer (-1 for a root).
struct Span {
  uint64_t request = 0;
  const char* name = "";
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread, lock-free span buffer; buffers are merged when the run
/// ends.
class TraceBuffer {
 public:
  int64_t Add(uint64_t request, const char* name, int64_t parent,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back({request, name, parent, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t span, int64_t end_ns) {
    spans_[static_cast<size_t>(span)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Raw per-layer observations from the probes, merged across threads.
/// Each vector is one sample per probed request; the summary reduces
/// them to medians, means or ratios.
struct ProbeSamples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
  void Merge(const ProbeSamples& other);
};

/// One OK response: when it arrived, its kind and its client latency.
struct Sample {
  int64_t done_ns = 0;
  Kind kind = Kind::kInequality;
  double latency_ms = 0.0;
};

/// Everything a measured window produced.
struct WindowResult {
  /// Submissions stop at end_ns; `seconds` runs until the last response.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds = 0.0;
  std::vector<Sample> samples;
  /// How late the writer sent each append.
  std::vector<double> writer_lag_ms;
  /// Traced windows only: the engine-reported queue/execute split per
  /// read request, and the engine time per append.
  std::vector<double> queue_ms;
  std::vector<double> execute_ms;
  std::vector<double> handoff_us;
  std::vector<double> append_execute_us;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;  ///< non-OK statuses (incl. deadline)
  uint64_t appended_rows = 0;
  std::vector<CheckItem> checks;
  /// Traced windows only.
  ProbeSamples probes;
  std::vector<TraceBuffer> traces;
  DebugSnapshot before;
  DebugSnapshot after;
  std::vector<uint64_t> shard_rows_before;
  std::vector<uint64_t> shard_rows_after;
};

/// The served system: catalog, optional ingest manager, engine.
struct System {
  const WorkloadSpec* spec = nullptr;
  /// Generated data per target (the reference for the correctness gate
  /// of static targets; the ingest target's reference is its flushed
  /// base).
  std::vector<PhiMatrix> data;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<IngestManager> ingest;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_seconds;
  /// Rows acknowledged by all appends so far (the ingest target holds
  /// its initial rows plus these).
  uint64_t appended_rows = 0;
};

/// Generates the data and builds the targets at least `min_reps` times,
/// and more while the builds took less than `min_seconds` in total (each
/// time into a fresh catalog, keeping the last), timing the index
/// construction only; then starts the engine.
System SetUp(const WorkloadSpec& spec, uint64_t seed, int min_reps,
             double min_seconds);

/// Runs the workload against `system` for `seconds`. `stream` picks the
/// generator seeds (warm-up, untraced and traced windows use different
/// streams of the same seed). With `traced`, probes.cc runs on a
/// deterministic subset of requests and spans are recorded.
WindowResult RunWindow(System& system, uint64_t seed, uint64_t stream,
                       double seconds, bool traced);

/// Flushes the ingest target, checks that it holds every acknowledged
/// append, and checks every kept answer against the f64 scan. Returns
/// the number of wrong answers; `checked` receives how many checks ran
/// and `notes` a description of the first failures.
uint64_t CheckAnswers(System& system, const std::vector<CheckItem>& checks,
                      uint64_t* checked, std::vector<std::string>* notes);

/// Runs the per-layer probes for one completed request on the calling
/// generator thread, appending spans under `request` to `trace` and raw
/// observations to `samples`.
void ProbeRequest(const System& system, const Op& op, uint64_t request,
                  TraceBuffer* trace, ProbeSamples* samples);

/// Order statistics (linear interpolation between closest ranks).
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

}  // namespace perfbench
}  // namespace planar

#endif  // PLANAR_PERFBENCH_PERFBENCH_H_
