// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The engine-side seam of the ingest subsystem (src/ingest). The engine
// cannot depend on src/ingest (ingest depends on the engine's Catalog for
// MVCC installs), so writes and epoch pins route through this abstract
// backend, which the engine holds as a borrowed IngestBackend*. The
// backend answers no queries: a read against a managed target pins the
// target's current epoch, a ShardedIndexSet with one base part and the
// delta as its tail (core/sharded.h), and the engine reads it through
// the same partitioned read path as a catalog sharded entry
// (CONTRIBUTING: pin the epoch and read it like a sharded set).

#ifndef PLANAR_ENGINE_INGEST_HOOK_H_
#define PLANAR_ENGINE_INGEST_HOOK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/sharded.h"

namespace planar {

class EngineMetrics;

/// Write-path backend the engine consults for appends and for the
/// epoch of an ingest-managed target. Implemented by
/// ingest::IngestManager; the interface lives here so planar_engine stays
/// free of a planar_ingest dependency.
class IngestBackend {
 public:
  virtual ~IngestBackend() = default;

  /// Point-in-time gauges for DebugSnapshot.
  struct Gauges {
    size_t targets = 0;     ///< catalog entries under ingest management
    size_t delta_rows = 0;  ///< unmerged rows across all deltas
    uint64_t merges = 0;    ///< background merges installed so far
  };

  /// Appends `rows.size() / dim` rows (row-major) to `target`'s delta.
  /// Returns the first global row id assigned, kResourceExhausted when
  /// the delta is at capacity (admission control: shed, never block),
  /// kInvalidArgument for a malformed or non-finite payload, kNotFound
  /// for an unmanaged target.
  virtual Result<uint32_t> Append(const std::string& target,
                                  const std::vector<double>& rows) = 0;

  /// Pins `target`'s current epoch — its base snapshot and the delta
  /// appended on top of it — or returns nullptr when `target` takes no
  /// writes through this backend (serve it from the catalog as is).
  virtual std::shared_ptr<const ShardedIndexSet> Pin(
      const std::string& target) const = 0;

  /// Routes the backend's counters (appends, sheds, merges, merge
  /// latency) into the engine's metrics sink. Called by
  /// Engine::AttachIngest; `metrics` outlives the backend's last write.
  virtual void BindMetrics(EngineMetrics* metrics) = 0;

  virtual Gauges gauges() const = 0;
};

}  // namespace planar

#endif  // PLANAR_ENGINE_INGEST_HOOK_H_
