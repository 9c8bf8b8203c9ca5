// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// DeltaBuffer: the append-only row store behind one ingest-managed
// catalog entry, read through an OverlaySet (core/overlay.h). Writers
// (serialized by the owning ingest shard's Mutex) copy whole phi rows
// into preallocated storage and publish the new row count with a release
// store; readers pin an epoch, acquire-load the count once, and then
// scan rows [0, count) with no lock at all — published rows are
// immutable and the storage never reallocates, so the acquire pairs with
// the writer's release to make every published row's bytes visible.
// Capacity doubles as admission control: a full buffer sheds (Append
// returns false) rather than blocking the writer behind the background
// merge.

#ifndef PLANAR_CORE_DELTA_BUFFER_H_
#define PLANAR_CORE_DELTA_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace planar {

/// Fixed-capacity append-only store of row-major phi rows.
class DeltaBuffer {
 public:
  /// Storage for up to `capacity` rows of width `dim`, allocated once.
  DeltaBuffer(size_t dim, size_t capacity)
      : dim_(dim), capacity_(capacity), rows_(dim * capacity) {
    PLANAR_CHECK(dim > 0);
  }

  DeltaBuffer(const DeltaBuffer&) = delete;
  DeltaBuffer& operator=(const DeltaBuffer&) = delete;

  /// Copies `count` rows and publishes them. Returns false (appending
  /// nothing) when the rows do not all fit. Writer side: callers must
  /// serialize Append externally (the ingest shard holds its Mutex).
  bool Append(const double* rows, size_t count) {
    // relaxed-ok: the externally-serialized writer is the only thread
    // that stores size_, so its own relaxed load always sees the latest
    // count; readers synchronize on the release store below instead.
    const size_t current = size_.load(std::memory_order_relaxed);
    if (count > capacity_ - current) return false;
    if (count == 0) return true;
    std::memcpy(rows_.data() + current * dim_, rows,
                count * dim_ * sizeof(double));
    size_.store(current + count, std::memory_order_release);
    return true;
  }

  /// Published row count. The acquire pairs with Append's release: rows
  /// [0, size()) are fully visible to the calling thread.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Row-major storage; valid for rows [0, size()) after a size() read.
  const double* data() const { return rows_.data(); }

  size_t dim() const { return dim_; }
  size_t capacity() const { return capacity_; }

 private:
  const size_t dim_;
  const size_t capacity_;
  std::vector<double> rows_;  // capacity_ * dim_ doubles, never reallocated
  std::atomic<size_t> size_{0};
};

}  // namespace planar

#endif  // PLANAR_CORE_DELTA_BUFFER_H_
