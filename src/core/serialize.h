// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Persistence for PlanarIndexSet. The on-disk format stores the phi
// matrix, the options, and every index's normal and octant; the sorted
// key structures are rebuilt on load (index construction is loglinear
// and fast, so this keeps the format small, versionable, and immune to
// layout changes).
//
// Format v2 (little-endian):
//   magic "PLNRIDX2" | crc32 (u32, over the payload) | payload size (u64) |
//   payload: options | dim | n | row-major phi data |
//            #indices | per index: octant bits (u64) + normal doubles
//
// The checksum covers every payload byte, so a truncated or bit-flipped
// snapshot fails with kDataLoss instead of rebuilding a garbage index.
// v1 files ("PLNRIDX1": the same payload with no checksum header) are
// still readable.

#ifndef PLANAR_CORE_SERIALIZE_H_
#define PLANAR_CORE_SERIALIZE_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/index_set.h"

namespace planar {

/// Writes the set (matrix + index definitions) to `path` in format v2.
/// Fails with kInvalidArgument, before opening the file, when the set has
/// more than 64 phi dimensions (octant ids are stored as 64-bit masks).
Status SaveIndexSet(const PlanarIndexSet& set, const std::string& path);

/// Reads a set written by SaveIndexSet and rebuilds its indices with the
/// options stored in the file. Fails with kDataLoss when a v2 checksum
/// does not match (truncation, bit flips), and with kInvalidArgument when
/// a field is out of range or a count exceeds the bytes present.
Result<PlanarIndexSet> LoadIndexSet(const std::string& path);

/// Same, but `options` overrides the stored tuning knobs when non-null:
/// the indices are rebuilt with *options instead of the persisted record
/// (e.g. load a snapshot with axis exclusion switched off). Passing
/// nullptr is identical to the single-argument form.
Result<PlanarIndexSet> LoadIndexSet(const std::string& path,
                                    const IndexSetOptions* options);

}  // namespace planar

#endif  // PLANAR_CORE_SERIALIZE_H_
