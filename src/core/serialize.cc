// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/macros.h"

namespace planar {

namespace {

constexpr char kMagicV1[8] = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '1'};
constexpr char kMagicV2[8] = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '2'};

// Octant ids are one bit per axis in a u64, so no saved set has more
// phi dimensions than this.
constexpr uint64_t kMaxDim = 64;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Append-only byte buffer the payload is serialized into before it is
// checksummed and written in one pass.
class ByteWriter {
 public:
  void Append(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }
  template <typename T>
  void AppendValue(const T& value) {
    Append(&value, sizeof(T));
  }
  const std::vector<unsigned char>& buffer() const { return buffer_; }

 private:
  std::vector<unsigned char> buffer_;
};

// Bounds-checked cursor over an in-memory payload.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, size_t size)
      : data_(data), remaining_(size) {}

  bool Read(void* out, size_t size) {
    if (size > remaining_) return false;
    std::memcpy(out, data_, size);
    data_ += size;
    remaining_ -= size;
    return true;
  }
  template <typename T>
  bool ReadValue(T* out) {
    return Read(out, sizeof(T));
  }
  size_t remaining() const { return remaining_; }

 private:
  const unsigned char* data_;
  size_t remaining_;
};

// Options are flattened into a fixed-size POD record.
struct OptionsRecord {
  uint64_t budget;
  uint32_t selector;
  // Once the key-storage backend (0 = sorted array, 1 = B+-tree). Always
  // written as 0; both values load onto the sorted array, since answers
  // never depended on the backend.
  uint32_t legacy_backend;
  double dedup_tolerance;
  uint64_t seed;
  // Once IndexSetOptions::max_attempts_per_index, a build-time sampling
  // cap. Always written as 16 (its only value in practice) so snapshots
  // stay byte-identical; ignored on load.
  uint64_t legacy_max_attempts;
  double delta_margin;
  double epsilon_band;
  uint32_t axis_exclusion;
  uint32_t reserved = 0;
};

OptionsRecord PackOptions(const IndexSetOptions& o) {
  OptionsRecord r{};
  r.budget = o.budget;
  r.selector = static_cast<uint32_t>(o.selector);
  r.legacy_backend = 0;
  r.dedup_tolerance = o.dedup_tolerance;
  r.seed = o.seed;
  r.legacy_max_attempts = 16;
  r.delta_margin = o.index_options.translation.delta_margin;
  r.epsilon_band = o.index_options.epsilon_band;
  r.axis_exclusion = o.index_options.enable_axis_exclusion ? 1 : 0;
  return r;
}

Result<IndexSetOptions> UnpackOptions(const OptionsRecord& r,
                                      const std::string& path) {
  if (r.selector > static_cast<uint32_t>(
                       IndexSetOptions::Selector::kIntervalCount)) {
    return Status::InvalidArgument("unknown selector " +
                                   std::to_string(r.selector) + " in '" +
                                   path + "'");
  }
  if (r.legacy_backend > 1) {
    return Status::InvalidArgument("unknown backend " +
                                   std::to_string(r.legacy_backend) +
                                   " in '" + path + "'");
  }
  IndexSetOptions o;
  o.budget = r.budget;
  o.selector = static_cast<IndexSetOptions::Selector>(r.selector);
  o.dedup_tolerance = r.dedup_tolerance;
  o.seed = r.seed;
  o.index_options.translation.delta_margin = r.delta_margin;
  o.index_options.epsilon_band = r.epsilon_band;
  o.index_options.enable_axis_exclusion = r.axis_exclusion != 0;
  return o;
}

Result<std::vector<unsigned char>> ReadWholeFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::vector<unsigned char> bytes;
  unsigned char chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f.get())) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  if (std::ferror(f.get()) != 0) {
    return Status::Internal("read error on '" + path + "'");
  }
  return bytes;
}

// Parses the payload (everything after the version header) and rebuilds
// the set. `options_override`, when non-null, replaces the stored tuning
// knobs. Every count read from the file is bounded by the bytes left
// before anything is allocated for it.
Result<PlanarIndexSet> ParsePayload(ByteReader reader,
                                    const std::string& path,
                                    const IndexSetOptions* options_override) {
  OptionsRecord options_record;
  uint64_t dim = 0;
  uint64_t n = 0;
  if (!reader.ReadValue(&options_record) || !reader.ReadValue(&dim) ||
      !reader.ReadValue(&n) || dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("corrupt header in '" + path + "'");
  }
  PLANAR_ASSIGN_OR_RETURN(const IndexSetOptions stored,
                          UnpackOptions(options_record, path));
  const IndexSetOptions& options =
      options_override != nullptr ? *options_override : stored;

  const size_t row_bytes = sizeof(double) * dim;
  if (n > reader.remaining() / row_bytes) {
    return Status::InvalidArgument("truncated phi data in '" + path + "'");
  }
  PhiMatrix phi(dim);
  phi.Reserve(n);
  std::vector<double> row(dim);
  for (uint64_t i = 0; i < n; ++i) {
    if (!reader.Read(row.data(), row_bytes)) {
      return Status::InvalidArgument("truncated phi data in '" + path + "'");
    }
    phi.AppendRow(row.data());
  }
  uint64_t num_indices = 0;
  if (!reader.ReadValue(&num_indices) || num_indices == 0) {
    return Status::InvalidArgument("no indices in '" + path + "'");
  }
  if (num_indices > reader.remaining() / (sizeof(uint64_t) + row_bytes)) {
    return Status::InvalidArgument("truncated index table in '" + path +
                                   "'");
  }
  std::vector<PlanarIndexSet::IndexDefinition> definitions;
  definitions.reserve(num_indices);
  for (uint64_t i = 0; i < num_indices; ++i) {
    uint64_t octant_bits = 0;
    std::vector<double> normal(dim);
    if (!reader.ReadValue(&octant_bits) ||
        !reader.Read(normal.data(), row_bytes)) {
      return Status::InvalidArgument("truncated index table in '" + path +
                                     "'");
    }
    std::vector<double> representative(dim);
    for (size_t j = 0; j < dim; ++j) {
      representative[j] = (octant_bits >> j) & 1 ? -1.0 : 1.0;
    }
    definitions.emplace_back(std::move(normal),
                             Octant::FromNormal(representative));
  }

  std::vector<PhiMatrix> phis;
  phis.push_back(std::move(phi));
  PLANAR_ASSIGN_OR_RETURN(
      std::vector<PlanarIndexSet> sets,
      PlanarIndexSet::BuildEach(std::move(phis), definitions, options));
  return std::move(sets.front());
}

}  // namespace

Status SaveIndexSet(const PlanarIndexSet& set, const std::string& path) {
  const PhiMatrix& phi = set.phi();
  const uint64_t dim = phi.dim();
  const uint64_t n = phi.size();
  const uint64_t num_indices = set.num_indices();
  if (dim > kMaxDim) {
    return Status::InvalidArgument(
        "cannot save a set with more than " + std::to_string(kMaxDim) +
        " phi dimensions (octant ids are 64-bit)");
  }

  ByteWriter payload;
  payload.AppendValue(PackOptions(set.options()));
  payload.AppendValue(dim);
  payload.AppendValue(n);
  for (size_t i = 0; i < n; ++i) {
    payload.Append(phi.row(i), sizeof(double) * dim);
  }
  payload.AppendValue(num_indices);
  for (size_t i = 0; i < num_indices; ++i) {
    const PlanarIndex& index = set.index(i);
    const uint64_t octant_bits = index.octant().Id();
    payload.AppendValue(octant_bits);
    payload.Append(index.normal().data(), sizeof(double) * dim);
  }

  const std::vector<unsigned char>& bytes = payload.buffer();
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  const uint64_t payload_size = bytes.size();

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const bool ok =
      std::fwrite(kMagicV2, 1, sizeof(kMagicV2), f.get()) ==
          sizeof(kMagicV2) &&
      std::fwrite(&crc, 1, sizeof(crc), f.get()) == sizeof(crc) &&
      std::fwrite(&payload_size, 1, sizeof(payload_size), f.get()) ==
          sizeof(payload_size) &&
      std::fwrite(bytes.data(), 1, bytes.size(), f.get()) == bytes.size();
  if (!ok) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

Result<PlanarIndexSet> LoadIndexSet(const std::string& path) {
  return LoadIndexSet(path, nullptr);
}

Result<PlanarIndexSet> LoadIndexSet(const std::string& path,
                                    const IndexSetOptions* options) {
  PLANAR_ASSIGN_OR_RETURN(std::vector<unsigned char> bytes,
                          ReadWholeFile(path));
  if (bytes.size() < sizeof(kMagicV2)) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a planar index file");
  }
  if (std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) == 0) {
    // v2: checksummed. Verify the payload before parsing a single field.
    constexpr size_t kHeaderSize =
        sizeof(kMagicV2) + sizeof(uint32_t) + sizeof(uint64_t);
    if (bytes.size() < kHeaderSize) {
      return Status::DataLoss("truncated header in '" + path + "'");
    }
    uint32_t stored_crc = 0;
    uint64_t payload_size = 0;
    std::memcpy(&stored_crc, bytes.data() + sizeof(kMagicV2),
                sizeof(stored_crc));
    std::memcpy(&payload_size,
                bytes.data() + sizeof(kMagicV2) + sizeof(stored_crc),
                sizeof(payload_size));
    const unsigned char* payload = bytes.data() + kHeaderSize;
    const size_t available = bytes.size() - kHeaderSize;
    if (available != payload_size) {
      return Status::DataLoss("'" + path + "' is truncated: expected " +
                              std::to_string(payload_size) +
                              " payload bytes, found " +
                              std::to_string(available));
    }
    const uint32_t actual_crc = Crc32(payload, available);
    if (actual_crc != stored_crc) {
      return Status::DataLoss("checksum mismatch in '" + path +
                              "': the snapshot is corrupt");
    }
    return ParsePayload(ByteReader(payload, available), path, options);
  }
  if (std::memcmp(bytes.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    // v1: no checksum; field-level bounds checks are the only guard.
    return ParsePayload(ByteReader(bytes.data() + sizeof(kMagicV1),
                                   bytes.size() - sizeof(kMagicV1)),
                        path, options);
  }
  return Status::InvalidArgument("'" + path +
                                 "' is not a planar index file");
}

}  // namespace planar
