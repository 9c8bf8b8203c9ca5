// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Catalog: named, refcounted PlanarIndexSet instances with atomic
// snapshot-swap semantics. Readers grab a shared_ptr<const ...> and keep
// querying their snapshot even while a writer Install()s a replacement —
// a rebuild never blocks or invalidates in-flight queries; the old set is
// destroyed when its last reader drops the pointer. The expensive part
// (building the set) happens entirely outside the catalog; Install/Drop
// only swap a pointer under a short mutex.

#ifndef PLANAR_ENGINE_CATALOG_H_
#define PLANAR_ENGINE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "core/index_set.h"
#include "core/sharded.h"

namespace planar {

/// Thread-safe name -> index-set mapping with copy-on-swap updates.
/// A name holds either a monolithic PlanarIndexSet or a sharded
/// scatter-gather ShardedIndexSet (core/sharded.h), never both:
/// installing one flavor replaces any entry of the other flavor under
/// the same name, so request routing is unambiguous.
class Catalog {
 public:
  using SetPtr = std::shared_ptr<const PlanarIndexSet>;
  using ShardedPtr = std::shared_ptr<const ShardedIndexSet>;

  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Installs (or replaces) the entry `name`. The set is frozen behind a
  /// const pointer; in-flight readers of a previous version are
  /// unaffected. Returns the installed snapshot.
  SetPtr Install(const std::string& name, PlanarIndexSet set)
      PLANAR_EXCLUDES(mu_);

  /// Builds a set with `options` (its build width is
  /// options.build_threads, default all cores) and installs it under
  /// `name`. The build runs outside any catalog lock, so concurrent
  /// readers and installs are unaffected.
  Result<SetPtr> BuildAndInstall(
      const std::string& name, PhiMatrix phi,
      const std::vector<ParameterDomain>& domains,
      const IndexSetOptions& options = IndexSetOptions())
      PLANAR_EXCLUDES(mu_);

  /// Installs (or replaces) `name` with a sharded set; same snapshot
  /// semantics as Install. A monolithic entry of the same name is
  /// replaced (and vice versa).
  ShardedPtr InstallSharded(const std::string& name, ShardedIndexSet set)
      PLANAR_EXCLUDES(mu_);

  /// Builds a ShardedIndexSet with `options` and installs it under
  /// `name`. The build (slice copies plus every shard's indices, across
  /// options.set_options.build_threads, default all cores) runs outside
  /// any catalog lock.
  Result<ShardedPtr> BuildAndInstallSharded(
      const std::string& name, PhiMatrix phi,
      const std::vector<ParameterDomain>& domains,
      ShardedIndexSetOptions options = ShardedIndexSetOptions())
      PLANAR_EXCLUDES(mu_);

  /// Removes `name` (either flavor). Returns false when no such entry
  /// exists. Readers holding the snapshot keep it alive until they
  /// finish.
  bool Drop(const std::string& name) PLANAR_EXCLUDES(mu_);

  /// The current monolithic snapshot for `name`, or nullptr when absent
  /// or sharded. O(log r). Takes the lock in shared mode: concurrent
  /// Find/Names/size calls never serialize behind each other, only
  /// behind the short exclusive pointer swap of Install/Drop.
  SetPtr Find(const std::string& name) const PLANAR_EXCLUDES(mu_);

  /// The current sharded snapshot for `name`, or nullptr when absent or
  /// monolithic.
  ShardedPtr FindSharded(const std::string& name) const PLANAR_EXCLUDES(mu_);

  /// All entry names, sorted.
  std::vector<std::string> Names() const PLANAR_EXCLUDES(mu_);

  /// Number of entries.
  size_t size() const PLANAR_EXCLUDES(mu_);

  /// Monotone counter bumped by every Install and successful Drop; lets
  /// callers detect churn between two observations.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  mutable Mutex mu_{kLockRankCatalog};
  std::map<std::string, SetPtr> sets_ PLANAR_GUARDED_BY(mu_);
  /// Disjoint from sets_ by construction (install of one flavor erases
  /// the other).
  std::map<std::string, ShardedPtr> sharded_ PLANAR_GUARDED_BY(mu_);
  std::atomic<uint64_t> version_{0};
};

}  // namespace planar

#endif  // PLANAR_ENGINE_CATALOG_H_
