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
// Ingest answers no queries. Its read job is to hand out epochs: Pin
// returns the target's current OverlaySet (core/overlay.h) — a {base
// snapshot, delta} pair swapped atomically at merge install — and the
// caller reads it like a set. The overlay scan-verifies the unmerged rows,
// so the ids returned are exactly the ids a quiesced from-scratch Rebuild
// over the same rows would return (machine-checked by
// tests/ingest_test.cc, under tsan by tests/ingest_stress_test.cc).
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
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "core/delta_buffer.h"
#include "core/overlay.h"
#include "engine/ingest_hook.h"

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
  /// Rejects a payload that is not a whole number of rows or holds a
  /// NaN or infinite value (kInvalidArgument, nothing appended): the
  /// index's keys and boundary search assume finite rows.
  Result<uint32_t> Append(const std::string& target,
                          const std::vector<double>& rows) override
      PLANAR_EXCLUDES(mu_);
  std::shared_ptr<const OverlaySet> Pin(const std::string& target) const
      override PLANAR_EXCLUDES(mu_);
  void BindMetrics(EngineMetrics* metrics) override;
  Gauges gauges() const override PLANAR_EXCLUDES(mu_);

  const IngestOptions& options() const { return options_; }

  /// Pin(target)->Inequality(q, deadline) into `*out`; false (and `*out`
  /// untouched) when `target` is unmanaged.
  bool Inequality(const std::string& target, const ScalarProductQuery& q,
                  const Deadline& deadline,
                  Result<InequalityResult>* out) const PLANAR_EXCLUDES(mu_);

 private:
  struct Shard {
    explicit Shard(std::string target) : name(std::move(target)) {}

    const std::string name;
    size_t dim = 0;
    mutable Mutex mu{kLockRankIngestDelta};
    /// Merger wake-ups: delta past threshold, flush requested, or stop.
    CondVar wake;
    /// Signaled after every install; Flush waits on it.
    CondVar merged;
    /// The current epoch: swapped as a unit at merge install, so a reader
    /// that pinned it always sees a consistent (base, delta) pair.
    std::shared_ptr<const OverlaySet> view PLANAR_GUARDED_BY(mu);
    /// Writer handle to the same buffer view->delta() points at.
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
