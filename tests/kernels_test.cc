// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Kernel equivalence suite (runs under every sanitizer preset): the scalar
// reference and the SIMD path must produce bit-identical dot products —
// same accepted-id sets, same residuals, same keys — across dimensions
// 1..16, odd tail lengths, and denormal/huge magnitudes. See kernels.h
// for the determinism contract these tests pin down.

#include "core/kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/planar_index.h"
#include "geometry/vec.h"
#include "tests/test_util.h"

namespace planar {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Exact bit equality (stricter than ==: distinguishes +0/-0, compares NaN
// payloads). Backend switches must never change a single bit.
::testing::AssertionResult BitEqual(double x, double y) {
  if (Bits(x) == Bits(y)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << x << " (0x" << std::hex << Bits(x) << ") vs " << y << " (0x"
         << Bits(y) << ")";
}

// Independent implementation of the canonical blocked summation order
// from kernels.h: four partial sums over lanes j % 4, reduced as
// ((s0 + s2) + (s1 + s3)), plus a sequential tail.
double ReferenceBlockedDot(const std::vector<double>& a,
                           const std::vector<double>& r) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  const size_t d = a.size();
  size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    for (size_t l = 0; l < 4; ++l) s[l] += a[j + l] * r[j + l];
  }
  double tail = 0.0;
  for (; j < d; ++j) tail += a[j] * r[j];
  return ((s[0] + s[2]) + (s[1] + s[3])) + tail;
}

// Values spanning the regimes that expose summation-order and rounding
// differences: denormals, huge magnitudes, exact zeros, and ordinary
// random reals.
double StressValue(Rng& rng, size_t i) {
  switch (i % 7) {
    case 0: return 4.9e-324;                  // smallest denormal
    case 1: return -3.7e-310;                 // denormal
    case 2: return 8.9e307;                   // near-overflow
    case 3: return -1.2e308;
    case 4: return 0.0;
    default: return rng.Uniform(-1e3, 1e3);
  }
}

std::vector<double> StressVector(Rng& rng, size_t d) {
  std::vector<double> v(d);
  for (size_t i = 0; i < d; ++i) v[i] = StressValue(rng, rng.UniformInt(uint64_t{7}));
  return v;
}

TEST(KernelsTest, ScalarDotOneMatchesBlockedReference) {
  Rng rng(11);
  const kernels::DotOps& scalar = kernels::ScalarOps();
  for (size_t d = 1; d <= 16; ++d) {
    for (int it = 0; it < 50; ++it) {
      const std::vector<double> a = StressVector(rng, d);
      const std::vector<double> r = StressVector(rng, d);
      EXPECT_TRUE(BitEqual(scalar.dot_one(a.data(), r.data(), d),
                           ReferenceBlockedDot(a, r)))
          << "d=" << d;
    }
  }
}

TEST(KernelsTest, ActiveBackendIsScalarOrAvx2) {
  const kernels::DotOps& active = kernels::Ops();
  EXPECT_TRUE(&active == &kernels::ScalarOps() ||
              &active == kernels::Avx2Ops());
  EXPECT_STREQ(kernels::BackendName(), active.name);
  EXPECT_EQ(kernels::SimdEnabled(), &active != &kernels::ScalarOps());
}

class KernelsSimdEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simd_ = kernels::Avx2Ops();
    if (simd_ == nullptr) {
      GTEST_SKIP() << "binary built without the AVX2 kernel TU "
                      "(PLANAR_DISABLE_SIMD build or non-x86 host)";
    }
  }
  const kernels::DotOps* simd_ = nullptr;
};

TEST_F(KernelsSimdEquivalenceTest, DotOneBitIdentical) {
  Rng rng(12);
  const kernels::DotOps& scalar = kernels::ScalarOps();
  for (size_t d = 1; d <= 16; ++d) {
    for (int it = 0; it < 100; ++it) {
      const std::vector<double> a = StressVector(rng, d);
      const std::vector<double> r = StressVector(rng, d);
      EXPECT_TRUE(BitEqual(scalar.dot_one(a.data(), r.data(), d),
                           simd_->dot_one(a.data(), r.data(), d)))
          << "d=" << d;
    }
  }
}

TEST_F(KernelsSimdEquivalenceTest, DotGatherBitIdentical) {
  Rng rng(13);
  const kernels::DotOps& scalar = kernels::ScalarOps();
  for (size_t d = 1; d <= 16; ++d) {
    const size_t n = 64;
    std::vector<double> rows;
    rows.reserve(n * d);
    for (size_t i = 0; i < n * d; ++i) rows.push_back(StressValue(rng, i));
    const std::vector<double> a = StressVector(rng, d);
    // Gather in shuffled order with repeats, every count in 0..n (odd
    // counts exercise the row-group tails).
    for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                         size_t{32}, size_t{63}, n}) {
      std::vector<uint32_t> ids(count);
      for (size_t i = 0; i < count; ++i) {
        ids[i] = static_cast<uint32_t>(rng.UniformInt(n));
      }
      const double bias = rng.Uniform(-10.0, 10.0);
      std::vector<double> got_scalar(count, 0.0), got_simd(count, 0.0);
      scalar.dot_gather(a.data(), d, rows.data(), d, ids.data(), count, bias,
                        got_scalar.data());
      simd_->dot_gather(a.data(), d, rows.data(), d, ids.data(), count, bias,
                        got_simd.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(BitEqual(got_scalar[i], got_simd[i]))
            << "d=" << d << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST_F(KernelsSimdEquivalenceTest, DotRangeBitIdentical) {
  Rng rng(14);
  const kernels::DotOps& scalar = kernels::ScalarOps();
  for (size_t d = 1; d <= 16; ++d) {
    const size_t n = 37;  // odd: exercises the 4-row group tail
    std::vector<double> rows;
    rows.reserve(n * d);
    for (size_t i = 0; i < n * d; ++i) rows.push_back(StressValue(rng, i));
    const std::vector<double> a = StressVector(rng, d);
    std::vector<double> got_scalar(n, 0.0), got_simd(n, 0.0);
    scalar.dot_range(a.data(), d, rows.data(), d, 0, n, 0.25,
                     got_scalar.data());
    simd_->dot_range(a.data(), d, rows.data(), d, 0, n, 0.25,
                     got_simd.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(got_scalar[i], got_simd[i]))
          << "d=" << d << " i=" << i;
    }
  }
}

TEST(KernelsTest, DotGatherMatchesPerRowDotOne) {
  Rng rng(15);
  const kernels::DotOps& ops = kernels::Ops();
  const size_t d = 5, n = 40;
  std::vector<double> rows(n * d);
  for (double& v : rows) v = rng.Uniform(-50.0, 50.0);
  const std::vector<double> a = StressVector(rng, d);
  std::vector<uint32_t> ids = {7, 0, 39, 39, 11, 2, 23};
  std::vector<double> out(ids.size(), 0.0);
  ops.dot_gather(a.data(), d, rows.data(), d, ids.data(), ids.size(), -3.5,
                 out.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(BitEqual(
        out[i], ops.dot_one(a.data(), rows.data() + ids[i] * d, d) + -3.5));
  }
}

TEST(KernelsTest, DotRangeMatchesGatherWithIota) {
  Rng rng(16);
  const kernels::DotOps& ops = kernels::Ops();
  const size_t d = 7, n = 33, first = 4;
  std::vector<double> rows(n * d);
  for (double& v : rows) v = rng.Uniform(-50.0, 50.0);
  const std::vector<double> a = StressVector(rng, d);
  std::vector<uint32_t> ids(n - first);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(first + i);
  }
  std::vector<double> via_range(ids.size(), 0.0), via_gather(ids.size(), 0.0);
  ops.dot_range(a.data(), d, rows.data(), d, first, ids.size(), 1.75,
                via_range.data());
  ops.dot_gather(a.data(), d, rows.data(), d, ids.data(), ids.size(), 1.75,
                 via_gather.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(BitEqual(via_range[i], via_gather[i])) << i;
  }
}

TEST(KernelsTest, CompressAcceptMatchesBranchyReference) {
  Rng rng(17);
  for (const bool le : {true, false}) {
    std::vector<double> residuals;
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < 300; ++i) {
      double r;
      switch (rng.UniformInt(5)) {
        case 0: r = 0.0; break;  // boundary: <=0 and >=0 both accept
        case 1: r = -0.0; break;
        case 2: r = std::nan(""); break;  // never accepted
        default: r = rng.Uniform(-1.0, 1.0); break;
      }
      residuals.push_back(r);
      ids.push_back(i * 3 + 1);
    }
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < ids.size(); ++i) {
      const bool match = le ? residuals[i] <= 0.0 : residuals[i] >= 0.0;
      if (match) expected.push_back(ids[i]);
    }
    std::vector<uint32_t> got(ids.size());
    const size_t kept = kernels::CompressAccept(residuals.data(), ids.data(),
                                                ids.size(), le, got.data());
    got.resize(kept);
    EXPECT_EQ(got, expected) << "le=" << le;

    std::vector<uint32_t> got_range(ids.size());
    const size_t kept_range = kernels::CompressAcceptRange(
        residuals.data(), 1000, ids.size(), le, got_range.data());
    got_range.resize(kept_range);
    std::vector<uint32_t> expected_range;
    for (size_t i = 0; i < ids.size(); ++i) {
      const bool match = le ? residuals[i] <= 0.0 : residuals[i] >= 0.0;
      if (match) expected_range.push_back(1000 + static_cast<uint32_t>(i));
    }
    EXPECT_EQ(got_range, expected_range) << "le=" << le;
  }
}

// dot_block_many against its definition: per query, the same residuals
// dot_gather produces (which in turn matches dot_one + bias). Covers the
// out_stride layout and query counts that exercise the AVX2 query-pair
// loop and its odd-query tail.
TEST(KernelsTest, DotBlockManyMatchesPerQueryGather) {
  Rng rng(20);
  const kernels::DotOps& ops = kernels::Ops();
  for (size_t d = 1; d <= 16; ++d) {
    const size_t n = 50;
    std::vector<double> rows;
    rows.reserve(n * d);
    for (size_t i = 0; i < n * d; ++i) rows.push_back(StressValue(rng, i));
    for (size_t num_q : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      std::vector<std::vector<double>> queries(num_q);
      std::vector<const double*> q_ptrs(num_q);
      std::vector<double> biases(num_q);
      for (size_t q = 0; q < num_q; ++q) {
        queries[q] = StressVector(rng, d);
        q_ptrs[q] = queries[q].data();
        biases[q] = rng.Uniform(-10.0, 10.0);
      }
      for (size_t count : {size_t{0}, size_t{1}, size_t{4}, size_t{7},
                           size_t{33}, n}) {
        std::vector<uint32_t> ids(count);
        for (uint32_t& id : ids) {
          id = static_cast<uint32_t>(rng.UniformInt(n));
        }
        const size_t out_stride = n + 3;  // out_stride > count is legal
        std::vector<double> got(num_q * out_stride, -7.0);
        ops.dot_block_many(q_ptrs.data(), biases.data(), num_q, d,
                           rows.data(), d, ids.data(), count, got.data(),
                           out_stride);
        for (size_t q = 0; q < num_q; ++q) {
          std::vector<double> want(count, 0.0);
          ops.dot_gather(q_ptrs[q], d, rows.data(), d, ids.data(), count,
                         biases[q], want.data());
          for (size_t i = 0; i < count; ++i) {
            EXPECT_TRUE(BitEqual(got[q * out_stride + i], want[i]))
                << "d=" << d << " num_q=" << num_q << " count=" << count
                << " q=" << q << " i=" << i;
          }
        }
      }
    }
  }
}

TEST_F(KernelsSimdEquivalenceTest, DotBlockManyBitIdentical) {
  Rng rng(21);
  const kernels::DotOps& scalar = kernels::ScalarOps();
  for (size_t d = 1; d <= 16; ++d) {
    const size_t n = 41;  // odd: 4-row group tail in the AVX2 micro-GEMM
    std::vector<double> rows;
    rows.reserve(n * d);
    for (size_t i = 0; i < n * d; ++i) rows.push_back(StressValue(rng, i));
    for (size_t num_q : {size_t{1}, size_t{2}, size_t{4}, size_t{5}}) {
      std::vector<std::vector<double>> queries(num_q);
      std::vector<const double*> q_ptrs(num_q);
      std::vector<double> biases(num_q);
      for (size_t q = 0; q < num_q; ++q) {
        queries[q] = StressVector(rng, d);
        q_ptrs[q] = queries[q].data();
        biases[q] = rng.Uniform(-10.0, 10.0);
      }
      std::vector<uint32_t> ids(n);
      for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.UniformInt(n));
      std::vector<double> got_scalar(num_q * n, 0.0);
      std::vector<double> got_simd(num_q * n, 0.0);
      scalar.dot_block_many(q_ptrs.data(), biases.data(), num_q, d,
                            rows.data(), d, ids.data(), n, got_scalar.data(),
                            n);
      simd_->dot_block_many(q_ptrs.data(), biases.data(), num_q, d,
                            rows.data(), d, ids.data(), n, got_simd.data(),
                            n);
      for (size_t i = 0; i < got_scalar.size(); ++i) {
        EXPECT_TRUE(BitEqual(got_scalar[i], got_simd[i]))
            << "d=" << d << " num_q=" << num_q << " flat=" << i;
      }
    }
  }
}

TEST(KernelsTest, CompressAcceptManyMatchesBranchyReference) {
  Rng rng(22);
  const size_t count = 64;
  const size_t num_q = 3;
  std::vector<double> residuals(num_q * count);
  for (size_t i = 0; i < residuals.size(); ++i) {
    switch (rng.UniformInt(5)) {
      case 0: residuals[i] = 0.0; break;
      case 1: residuals[i] = -0.0; break;
      case 2: residuals[i] = std::nan(""); break;
      default: residuals[i] = rng.Uniform(-1.0, 1.0); break;
    }
  }
  std::vector<uint32_t> ids(count);
  for (size_t i = 0; i < count; ++i) ids[i] = static_cast<uint32_t>(i * 2);
  // Per-query sub-slices, including an empty one.
  const size_t begin[num_q] = {0, 10, 30};
  const size_t end[num_q] = {count, 10, 47};
  const bool le[num_q] = {true, false, true};
  std::vector<std::vector<uint32_t>> out_bufs(num_q,
                                              std::vector<uint32_t>(count));
  uint32_t* outs[num_q] = {out_bufs[0].data(), out_bufs[1].data(),
                           out_bufs[2].data()};
  size_t kept[num_q] = {0, 0, 0};
  kernels::CompressAcceptMany(residuals.data(), count, num_q, ids.data(),
                              begin, end, le, outs, kept);
  for (size_t q = 0; q < num_q; ++q) {
    std::vector<uint32_t> expected;
    for (size_t i = begin[q]; i < end[q]; ++i) {
      const double r = residuals[q * count + i];
      if (le[q] ? r <= 0.0 : r >= 0.0) expected.push_back(ids[i]);
    }
    out_bufs[q].resize(kept[q]);
    EXPECT_EQ(out_bufs[q], expected) << "q=" << q;
  }
}

// End-to-end: the batched verification path answers exactly like the
// brute-force reference for both comparison directions, across
// dimensionalities with odd tails.
TEST(KernelsTest, IndexAnswersMatchBruteForceAcrossDims) {
  Rng rng(18);
  for (size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
                   size_t{13}}) {
    PhiMatrix phi = RandomPhi(600, d, 0.5, 100.0, 19 + d);
    auto index =
        PlanarIndex::BuildFirstOctant(&phi, std::vector<double>(d, 1.0));
    ASSERT_TRUE(index.ok());
    for (int it = 0; it < 20; ++it) {
      ScalarProductQuery q;
      q.a.resize(d);
      for (double& v : q.a) v = rng.Uniform(0.1, 5.0);
      q.b = rng.Uniform(0.0, 400.0 * static_cast<double>(d));
      q.cmp = it % 2 == 0 ? Comparison::kLessEqual
                          : Comparison::kGreaterEqual;
      auto got = index->Inequality(q);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(got->ids), BruteForceMatches(phi, q))
          << "d=" << d << " it=" << it;
    }
  }
}

}  // namespace
}  // namespace planar
