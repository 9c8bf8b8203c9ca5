// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "engine/catalog.h"

#include <algorithm>

#include "common/macros.h"

namespace planar {

Catalog::SetPtr Catalog::Install(const std::string& name,
                                 PlanarIndexSet set) {
  SetPtr snapshot = std::make_shared<const PlanarIndexSet>(std::move(set));
  ShardedPtr displaced;  // destroyed outside the lock
  {
    MutexLock lock(&mu_);
    sets_[name] = snapshot;
    auto it = sharded_.find(name);
    if (it != sharded_.end()) {
      displaced = std::move(it->second);
      sharded_.erase(it);
    }
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  return snapshot;
}

Catalog::ShardedPtr Catalog::InstallSharded(const std::string& name,
                                            ShardedIndexSet set) {
  ShardedPtr snapshot = std::make_shared<const ShardedIndexSet>(std::move(set));
  SetPtr displaced;  // destroyed outside the lock
  {
    MutexLock lock(&mu_);
    sharded_[name] = snapshot;
    auto it = sets_.find(name);
    if (it != sets_.end()) {
      displaced = std::move(it->second);
      sets_.erase(it);
    }
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  return snapshot;
}

Result<Catalog::ShardedPtr> Catalog::BuildAndInstallSharded(
    const std::string& name, PhiMatrix phi,
    const std::vector<ParameterDomain>& domains,
    ShardedIndexSetOptions options) {
  PLANAR_ASSIGN_OR_RETURN(
      ShardedIndexSet set,
      ShardedIndexSet::Build(std::move(phi), domains, options));
  return InstallSharded(name, std::move(set));
}

Result<Catalog::SetPtr> Catalog::BuildAndInstall(
    const std::string& name, PhiMatrix phi,
    const std::vector<ParameterDomain>& domains,
    const IndexSetOptions& options) {
  PLANAR_ASSIGN_OR_RETURN(
      PlanarIndexSet set,
      PlanarIndexSet::Build(std::move(phi), domains, options));
  return Install(name, std::move(set));
}

bool Catalog::Drop(const std::string& name) {
  SetPtr doomed;          // destroyed outside the lock
  ShardedPtr doomed_sharded;  // likewise
  {
    MutexLock lock(&mu_);
    auto it = sets_.find(name);
    if (it != sets_.end()) {
      doomed = std::move(it->second);
      sets_.erase(it);
    } else {
      auto sit = sharded_.find(name);
      if (sit == sharded_.end()) return false;
      doomed_sharded = std::move(sit->second);
      sharded_.erase(sit);
    }
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

Catalog::SetPtr Catalog::Find(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  auto it = sets_.find(name);
  return it == sets_.end() ? nullptr : it->second;
}

Catalog::ShardedPtr Catalog::FindSharded(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  auto it = sharded_.find(name);
  return it == sharded_.end() ? nullptr : it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  ReaderMutexLock lock(&mu_);
  names.reserve(sets_.size() + sharded_.size());
  for (const auto& [name, set] : sets_) names.push_back(name);
  for (const auto& [name, set] : sharded_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::size() const {
  ReaderMutexLock lock(&mu_);
  return sets_.size() + sharded_.size();
}

}  // namespace planar
