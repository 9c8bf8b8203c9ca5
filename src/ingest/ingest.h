// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// IngestManager: the high-rate write path over MVCC catalog snapshots —
// the LSM-style counterpart to the paper's static build. Each managed
// catalog entry gets a shard: an append-only DeltaBuffer receiving new
// phi rows, and a background merger thread that, once the delta passes a
// threshold (or on Flush/Stop), clones the installed set, folds the
// drained rows in with one batched backward merge per index
// (PlanarIndexSet::AppendRows, the UpdateBatch machinery), and publishes
// the result atomically through Catalog::Install — readers are never
// blocked and never see a partial merge.
//
// Reads overlay the delta: a query pins an epoch — a {base snapshot,
// delta} pair swapped atomically at merge install — and scan-verifies
// the not-yet-merged rows through the verify loop the base paths use
// (core/scan.h ScanRows* over VerifyRows), so the ids returned are
// exactly the ids a quiesced from-scratch Rebuild over the same rows
// would return (machine-checked by tests/ingest_test.cc, under tsan by
// tests/ingest_stress_test.cc).
//
// Row ids are stable across merges by construction: delta row j of an
// epoch has global id base->size() + j, and a merge of the first k delta
// rows produces a base of size base->size() + k with the surviving tail
// renumbered j - k — the same global ids.

#ifndef PLANAR_INGEST_INGEST_H_
#define PLANAR_INGEST_INGEST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/ingest_hook.h"
#include "ingest/delta_buffer.h"

namespace planar {

class EngineMetrics;

/// Ingest sizing knobs.
struct IngestOptions {
  /// Admission-control bound: rows one delta holds before Append sheds
  /// with kResourceExhausted. Also the buffer's preallocated footprint
  /// (delta_capacity * dim doubles per managed target).
  size_t delta_capacity = 65536;
  /// The merger drains once the delta reaches this many rows. Lower =
  /// smaller query-time delta scans but more frequent O(n) merges; see
  /// README "Ingest" for tuning guidance.
  size_t merge_threshold = 8192;
};

/// The engine-facing write path (see engine/ingest_hook.h for the
/// interface contract). Thread-safe; one background merger per managed
/// target, joined by Stop() (never detached).
class IngestManager final : public IngestBackend {
 public:
  explicit IngestManager(Catalog* catalog,
                         const IngestOptions& options = IngestOptions());
  /// Stop()s, joining every merger after its final drain.
  ~IngestManager() override;

  IngestManager(const IngestManager&) = delete;
  IngestManager& operator=(const IngestManager&) = delete;

  /// Puts the existing catalog entry `target` under ingest management
  /// and starts its merger. Fails with kNotFound (no such entry),
  /// kFailedPrecondition (`target` is already managed), or kUnavailable
  /// (after Stop()).
  Status Manage(const std::string& target) PLANAR_EXCLUDES(mu_);

  /// Forces a merge of everything appended before the call and waits
  /// until it is installed (kDeadlineExceeded if `deadline` expires
  /// first, kUnavailable if Stop() intervenes). Queries after an OK
  /// Flush see every prior append in the base snapshot.
  Status Flush(const std::string& target,
               const Deadline& deadline = Deadline::Infinite())
      PLANAR_EXCLUDES(mu_);

  /// Stops every merger: each drains its remaining delta into one final
  /// install, then exits and is joined. Subsequent Append/Manage fail
  /// with kUnavailable; queries keep serving (delta now empty).
  /// Idempotent. Call before destroying the Catalog or detaching from
  /// the Engine.
  void Stop() PLANAR_EXCLUDES(mu_);

  // IngestBackend:
  bool Manages(const std::string& target) const override PLANAR_EXCLUDES(mu_);
  Result<uint32_t> Append(const std::string& target,
                          const std::vector<double>& rows) override
      PLANAR_EXCLUDES(mu_);
  bool Inequality(const std::string& target, const ScalarProductQuery& q,
                  const Deadline& deadline,
                  Result<InequalityResult>* out) const override
      PLANAR_EXCLUDES(mu_);
  bool TopK(const std::string& target, const ScalarProductQuery& q, size_t k,
            const Deadline& deadline, Result<TopKResult>* out) const override
      PLANAR_EXCLUDES(mu_);
  bool BatchInequality(const std::string& target,
                       std::span<const ScalarProductQuery> queries,
                       std::span<const Deadline> deadlines,
                       BatchExecStats* exec_stats,
                       std::vector<Result<InequalityResult>>* out)
      const override PLANAR_EXCLUDES(mu_);
  bool Count(const std::string& target, const ScalarProductQuery& q,
             const CountTolerance& tolerance, const Deadline& deadline,
             Result<CountResult>* out) const override PLANAR_EXCLUDES(mu_);
  bool Aggregate(const std::string& target, const ScalarProductQuery& q,
                 const CountTolerance& tolerance, const Deadline& deadline,
                 Result<AggregateResult>* out) const override
      PLANAR_EXCLUDES(mu_);
  void BindMetrics(EngineMetrics* metrics) override;
  Gauges gauges() const override PLANAR_EXCLUDES(mu_);

  const IngestOptions& options() const { return options_; }

 private:
  /// One epoch: the installed base snapshot plus the delta rows appended
  /// on top of it. Swapped as a unit at merge install, so a reader that
  /// pinned a view always sees a consistent (base, delta) pair.
  struct View {
    Catalog::SetPtr base;
    std::shared_ptr<const DeltaBuffer> delta;
  };

  struct Shard {
    explicit Shard(std::string target) : name(std::move(target)) {}

    const std::string name;
    size_t dim = 0;
    mutable Mutex mu{kLockRankIngestDelta};
    /// Merger wake-ups: delta past threshold, flush requested, or stop.
    CondVar wake;
    /// Signaled after every install; Flush waits on it.
    CondVar merged;
    std::shared_ptr<const View> view PLANAR_GUARDED_BY(mu);
    /// Writer handle to the same buffer view->delta points at.
    std::shared_ptr<DeltaBuffer> delta PLANAR_GUARDED_BY(mu);
    /// Monotone row counters; Flush waits for merged_total to catch up
    /// to the appended_total it observed.
    uint64_t appended_total PLANAR_GUARDED_BY(mu) = 0;
    uint64_t merged_total PLANAR_GUARDED_BY(mu) = 0;
    bool flush_requested PLANAR_GUARDED_BY(mu) = false;
    bool stop PLANAR_GUARDED_BY(mu) = false;
    // threads-ok: dedicated long-lived merger, one per managed target.
    // It blocks on the shard's CondVar between merges, so parking it in
    // the shared ThreadPool would pin a pool slot for the manager's
    // whole lifetime and starve query fan-outs.
    std::thread merger;
  };

  /// Registry lookup; the returned shard is stable (shards are only
  /// destroyed by the destructor, after every merger joined).
  Shard* FindShard(const std::string& target) const PLANAR_EXCLUDES(mu_);

  /// Pins the target's current epoch, or nullptr when unmanaged.
  std::shared_ptr<const View> PinView(const std::string& target) const
      PLANAR_EXCLUDES(mu_);

  /// The delta overlay every single-query read shares: pins the
  /// target's epoch, answers `base(set)` on its base snapshot, and lets
  /// `fold(view, delta_rows, &answer)` scan the unmerged rows into the
  /// answer. Returns false when `target` is unmanaged (see ingest.cc).
  template <typename T, typename Base, typename Fold>
  bool Overlay(const std::string& target, const Base& base, const Fold& fold,
               Result<T>* out) const PLANAR_EXCLUDES(mu_);

  void MergerLoop(Shard* shard);

  Catalog* const catalog_;
  const IngestOptions options_;
  mutable Mutex mu_{kLockRankIngestManager};
  std::map<std::string, std::unique_ptr<Shard>> shards_ PLANAR_GUARDED_BY(mu_);
  std::atomic<EngineMetrics*> metrics_{nullptr};
  std::atomic<uint64_t> merges_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace planar

#endif  // PLANAR_INGEST_INGEST_H_
