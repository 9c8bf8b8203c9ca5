// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/serialize.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace planar {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

PlanarIndexSet MakeSet(uint64_t seed, size_t budget,
                       IndexSetOptions options = IndexSetOptions()) {
  PhiMatrix phi = RandomPhi(500, 3, -20.0, 80.0, seed);
  options.budget = budget;
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}}, options);
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

TEST(SerializeTest, RoundTripPreservesAnswers) {
  const std::string path = TempPath("set_roundtrip.planar");
  PlanarIndexSet original = MakeSet(81, 8);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  auto loaded = LoadIndexSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_indices(), original.num_indices());
  for (size_t i = 0; i < original.num_indices(); ++i) {
    EXPECT_EQ(loaded->index(i).normal(), original.index(i).normal());
    EXPECT_EQ(loaded->index(i).octant(), original.index(i).octant());
  }

  Rng rng(82);
  for (int trial = 0; trial < 15; ++trial) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    q.b = rng.Uniform(-200, 400);
    q.cmp = trial % 2 == 0 ? Comparison::kLessEqual
                           : Comparison::kGreaterEqual;
    EXPECT_EQ(Sorted(loaded->Inequality(q).ids),
              Sorted(original.Inequality(q).ids))
        << trial;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, OptionsSurviveRoundTrip) {
  const std::string path = TempPath("set_options.planar");
  IndexSetOptions options;
  options.selector = IndexSetOptions::Selector::kAngle;
  options.index_options.enable_axis_exclusion = false;
  options.index_options.epsilon_band = 1e-7;
  PlanarIndexSet original = MakeSet(83, 3, options);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  auto loaded = LoadIndexSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->options().selector, IndexSetOptions::Selector::kAngle);
  EXPECT_FALSE(loaded->options().index_options.enable_axis_exclusion);
  EXPECT_DOUBLE_EQ(loaded->options().index_options.epsilon_band, 1e-7);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  auto loaded = LoadIndexSet(TempPath("does_not_exist.planar"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.planar");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not an index", f);
  std::fclose(f);
  auto loaded = LoadIndexSet(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileFailsWithDataLoss) {
  const std::string path = TempPath("truncated.planar");
  PlanarIndexSet original = MakeSet(84, 2);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  // Chop the file to two thirds.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size * 2 / 3), 0);
  auto loaded = LoadIndexSet(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  PLANAR_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  PLANAR_CHECK(std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path,
              const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  PLANAR_CHECK(f != nullptr);
  // An empty vector's data() may be null, which fwrite must not see.
  PLANAR_CHECK(bytes.empty() ||
               std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
}

TEST(SerializeTest, BitFlipFailsWithDataLoss) {
  const std::string path = TempPath("bitflip.planar");
  PlanarIndexSet original = MakeSet(85, 2);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  // The header is magic(8) + crc(4) + size(8) = 20 bytes; flip one bit in
  // the middle of the payload (phi data), where a v1-style reader would
  // have rebuilt a silently wrong index.
  const size_t victim = 20 + (bytes.size() - 20) / 2;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<unsigned char>(bytes[victim] ^ 0x10);
  WriteAll(path, bytes);

  auto loaded = LoadIndexSet(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, V1FilesStillLoad) {
  const std::string path = TempPath("v2.planar");
  const std::string v1_path = TempPath("v1.planar");
  PlanarIndexSet original = MakeSet(86, 3);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());

  // A v1 file is the magic "PLNRIDX1" followed directly by the payload —
  // the v2 layout minus the crc and size fields.
  std::vector<unsigned char> v2 = ReadAll(path);
  std::vector<unsigned char> v1;
  const char kV1Magic[8] = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '1'};
  v1.insert(v1.end(), kV1Magic, kV1Magic + 8);
  v1.insert(v1.end(), v2.begin() + 20, v2.end());
  WriteAll(v1_path, v1);

  auto loaded = LoadIndexSet(v1_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_indices(), original.num_indices());
  ScalarProductQuery q;
  q.a = {2.0, -3.0, 4.0};
  q.b = 150.0;
  EXPECT_EQ(Sorted(loaded->Inequality(q).ids),
            Sorted(original.Inequality(q).ids));
  std::remove(path.c_str());
  std::remove(v1_path.c_str());
}

TEST(SerializeTest, LoadWithOptionsOverrideReplacesStoredKnobs) {
  const std::string path = TempPath("override.planar");
  // Saved with axis exclusion on...
  PlanarIndexSet original = MakeSet(87, 2);
  ASSERT_TRUE(original.options().index_options.enable_axis_exclusion);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());

  // ...loaded with it off via the override, answers intact.
  IndexSetOptions override_options = original.options();
  override_options.index_options.enable_axis_exclusion = false;
  auto loaded = LoadIndexSet(path, &override_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->options().index_options.enable_axis_exclusion);
  ScalarProductQuery q;
  q.a = {3.0, -2.0, 1.0};
  q.b = 120.0;
  EXPECT_EQ(Sorted(loaded->Inequality(q).ids),
            Sorted(original.Inequality(q).ids));

  // A null override is identical to the single-argument overload.
  auto plain = LoadIndexSet(path, nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->options().index_options.enable_axis_exclusion);
  std::remove(path.c_str());
}

// Blob surgery helpers. A v2 file is magic(8) | crc(4) | size(8) |
// payload; the payload starts with the 64-byte options record (budget
// u64, selector u32, legacy backend u32, ...), then dim u64, n u64, the
// phi rows, num_indices u64 and the index table.
constexpr size_t kV2Header = 20;
constexpr size_t kSelectorOffset = 8;
constexpr size_t kLegacyBackendOffset = 12;
constexpr size_t kLegacyMaxAttemptsOffset = 32;
constexpr size_t kDimOffset = 64;
constexpr size_t kNOffset = 72;
constexpr size_t kPhiOffset = 80;

std::vector<unsigned char> SavedBytes(const PlanarIndexSet& set,
                                      const char* name) {
  const std::string path = TempPath(name);
  PLANAR_CHECK(SaveIndexSet(set, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  std::remove(path.c_str());
  return bytes;
}

template <typename T>
void Poke(std::vector<unsigned char>* bytes, size_t offset, T value) {
  PLANAR_CHECK(offset + sizeof(T) <= bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// Re-stamps a v2 blob's size and checksum after its payload was edited,
// so the edit reaches the parser instead of failing the checksum.
void Reseal(std::vector<unsigned char>* v2) {
  const uint64_t size = v2->size() - kV2Header;
  Poke(v2, 12, size);
  Poke(v2, 8, Crc32(v2->data() + kV2Header, v2->size() - kV2Header));
}

// The same payload behind the unchecksummed v1 magic.
std::vector<unsigned char> ToV1(const std::vector<unsigned char>& v2) {
  const char kV1Magic[8] = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '1'};
  std::vector<unsigned char> v1(v2.begin() + (kV2Header - 8), v2.end());
  std::memcpy(v1.data(), kV1Magic, sizeof(kV1Magic));
  return v1;
}

Result<PlanarIndexSet> LoadBytes(const std::vector<unsigned char>& bytes) {
  const std::string path = TempPath("crafted.planar");
  WriteAll(path, bytes);
  Result<PlanarIndexSet> loaded = LoadIndexSet(path);
  std::remove(path.c_str());
  return loaded;
}

// The snapshot field that once named the key-storage backend: 1 (the
// retired B+-tree) loads onto the sorted array with identical answers.
TEST(SerializeTest, LegacyBTreeBackendLoadsOntoSortedArray) {
  PlanarIndexSet original = MakeSet(88, 3);
  std::vector<unsigned char> bytes = SavedBytes(original, "legacy.planar");
  const auto plain = LoadBytes(bytes);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  Poke(&bytes, kV2Header + kLegacyBackendOffset, uint32_t{1});
  Reseal(&bytes);
  const auto legacy = LoadBytes(bytes);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_EQ(legacy->num_indices(), plain->num_indices());
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    q.b = rng.Uniform(-200, 400);
    q.cmp = trial % 2 == 0 ? Comparison::kLessEqual
                           : Comparison::kGreaterEqual;
    EXPECT_EQ(legacy->Inequality(q).ids, plain->Inequality(q).ids) << trial;
    EXPECT_EQ(Sorted(legacy->Inequality(q).ids),
              Sorted(original.Inequality(q).ids))
        << trial;
  }
}

// The snapshot field that once held IndexSetOptions::max_attempts_per_index
// (a build-time sampling cap, now a constant): always written as 16 and
// ignored on load, so a snapshot re-saved after loading is byte-identical
// whatever value the file carried there.
TEST(SerializeTest, LegacyMaxAttemptsSlotWrittenAs16AndIgnored) {
  const std::vector<unsigned char> saved =
      SavedBytes(MakeSet(92, 3), "attempts.planar");
  uint64_t slot = 0;
  std::memcpy(&slot, saved.data() + kV2Header + kLegacyMaxAttemptsOffset,
              sizeof(slot));
  EXPECT_EQ(slot, 16u);
  std::vector<unsigned char> crafted = saved;
  Poke(&crafted, kV2Header + kLegacyMaxAttemptsOffset, uint64_t{1} << 40);
  Reseal(&crafted);
  const auto loaded = LoadBytes(crafted);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SavedBytes(*loaded, "attempts_resaved.planar"), saved);
}

TEST(SerializeTest, UnknownBackendOrSelectorRejected) {
  const std::vector<unsigned char> saved =
      SavedBytes(MakeSet(90, 2), "enums.planar");
  std::vector<unsigned char> backend = saved;
  Poke(&backend, kV2Header + kLegacyBackendOffset, uint32_t{9});
  Reseal(&backend);
  EXPECT_EQ(LoadBytes(backend).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<unsigned char> selector = saved;
  Poke(&selector, kV2Header + kSelectorOffset, uint32_t{77});
  Reseal(&selector);
  EXPECT_EQ(LoadBytes(selector).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBytes(ToV1(selector)).status().code(),
            StatusCode::kInvalidArgument);
}

// Framing fuzz: counts read from a crafted file (dim, n, num_indices)
// and truncation at every byte must yield a Status, never an abort, and
// anything that does load must be a consistent index set.
TEST(SerializeTest, CraftedCountsAndTruncationsNeverAbort) {
  PhiMatrix phi = RandomPhi(24, 3, -20.0, 80.0, 91);
  IndexSetOptions options;
  options.budget = 3;
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}}, options);
  ASSERT_TRUE(set.ok());
  const std::vector<unsigned char> v2 = SavedBytes(*set, "fuzz.planar");
  const size_t num_indices_offset = kPhiOffset + 24 * 3 * sizeof(double);

  auto expect_status_or_valid = [](const std::vector<unsigned char>& bytes,
                                   const std::string& what) {
    const Result<PlanarIndexSet> loaded = LoadBytes(bytes);
    if (loaded.ok()) {
      EXPECT_TRUE(ValidateIndexSet(*loaded).ok()) << what;
    }
  };
  for (const size_t field : {kDimOffset, kNOffset, num_indices_offset}) {
    for (const uint64_t value :
         {uint64_t{0}, uint64_t{1}, uint64_t{65}, uint64_t{1} << 32,
          uint64_t{1} << 61, ~uint64_t{0}}) {
      std::vector<unsigned char> edited = v2;
      Poke(&edited, kV2Header + field, value);
      Reseal(&edited);
      const std::string what =
          "field@" + std::to_string(field) + "=" + std::to_string(value);
      expect_status_or_valid(edited, "v2 " + what);
      expect_status_or_valid(ToV1(edited), "v1 " + what);
    }
  }
  const std::vector<unsigned char> v1 = ToV1(v2);
  for (const std::vector<unsigned char>* blob : {&v2, &v1}) {
    for (size_t cut = 0; cut < blob->size(); ++cut) {
      const std::vector<unsigned char> truncated(blob->begin(),
                                                 blob->begin() + cut);
      const Result<PlanarIndexSet> loaded = LoadBytes(truncated);
      EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
    }
  }
}

TEST(SerializeTest, SaveRejectsMoreThan64Dims) {
  PhiMatrix phi = RandomPhi(16, 65, 1.0, 10.0, 92);
  IndexSetOptions options;
  options.budget = 1;
  auto set = PlanarIndexSet::Build(
      std::move(phi), std::vector<ParameterDomain>(65, {1.0, 2.0}), options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const std::string path = TempPath("dim65.planar");
  std::remove(path.c_str());
  EXPECT_EQ(SaveIndexSet(*set, path).code(), StatusCode::kInvalidArgument);
  EXPECT_NE(access(path.c_str(), F_OK), 0) << "no file may be left behind";
}

TEST(SerializeTest, LoadRejectsMoreThan64Dims) {
  // A self-consistent blob (rows, index table and checksum all match
  // dim = 70) that no SaveIndexSet could have written.
  const std::vector<unsigned char> saved =
      SavedBytes(MakeSet(93, 1), "dim70_src.planar");
  const uint64_t dim = 70;
  const uint64_t n = 4;
  std::vector<unsigned char> bytes(saved.begin(),
                                   saved.begin() + kV2Header + kDimOffset);
  auto append = [&bytes](const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    bytes.insert(bytes.end(), p, p + size);
  };
  append(&dim, sizeof(dim));
  append(&n, sizeof(n));
  const std::vector<double> row(dim, 1.5);
  for (uint64_t i = 0; i < n; ++i) append(row.data(), dim * sizeof(double));
  const uint64_t num_indices = 1;
  const uint64_t octant_bits = 0;
  append(&num_indices, sizeof(num_indices));
  append(&octant_bits, sizeof(octant_bits));
  append(row.data(), dim * sizeof(double));
  Reseal(&bytes);
  EXPECT_EQ(LoadBytes(bytes).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBytes(ToV1(bytes)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace planar
