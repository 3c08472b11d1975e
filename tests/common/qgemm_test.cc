#include "common/qgemm.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/int8_kernels.h"
#include "common/parallel.h"
#include "common/random.h"

namespace magneto {
namespace {

class QGemmTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ParallelThreads(); }
  void TearDown() override { SetParallelThreads(saved_threads_); }
  size_t saved_threads_ = 1;
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed,
                    double stddev = 1.0) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return x;
}

std::vector<int8_t> RandomInt8(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& e : v) {
    e = static_cast<int8_t>(
        static_cast<int>(rng.Uniform() * 255.0) - 127);
  }
  return v;
}

TEST_F(QGemmTest, QuantizeRowsRoundTripErrorBounded) {
  Matrix x = RandomMatrix(5, 40, 1);
  QuantizedRows q;
  QuantizeRowsInt8(x, &q);
  ASSERT_EQ(q.rows, 5u);
  ASSERT_EQ(q.cols, 40u);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t i = 0; i < x.cols(); ++i) {
      const float back =
          static_cast<float>(q.data[r * 40 + i]) * q.scales[r];
      EXPECT_LE(std::fabs(back - x.At(r, i)), q.scales[r] / 2.0f + 1e-6f);
    }
  }
}

TEST_F(QGemmTest, QuantizeRowsZeroRowUsesUnitScale) {
  Matrix x(2, 4);
  x.At(1, 2) = 3.0f;
  QuantizedRows q;
  QuantizeRowsInt8(x, &q);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(q.data[i], 0);
  EXPECT_EQ(q.data[4 + 2], 127);
}

TEST_F(QGemmTest, QuantizeRowsNonFiniteDeterministic) {
  Matrix x(1, 4);
  x.At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  x.At(0, 1) = std::numeric_limits<float>::infinity();
  x.At(0, 2) = -std::numeric_limits<float>::infinity();
  x.At(0, 3) = 2.0f;
  QuantizedRows q;
  QuantizeRowsInt8(x, &q);
  // Scale comes from the finite elements only; non-finite values saturate
  // (inf) or vanish (NaN) instead of invoking UB or poisoning the row.
  EXPECT_FLOAT_EQ(q.scales[0], 2.0f / 127.0f);
  EXPECT_EQ(q.data[0], 0);
  EXPECT_EQ(q.data[1], 127);
  EXPECT_EQ(q.data[2], -127);
  EXPECT_EQ(q.data[3], 127);
}

TEST_F(QGemmTest, MatchesNaiveIntegerGemm) {
  const size_t m = 7, k = 33, n = 12;
  Matrix x = RandomMatrix(m, k, 2);
  QuantizedRows qx;
  QuantizeRowsInt8(x, &qx);
  std::vector<int8_t> w = RandomInt8(k * n, 3);
  std::vector<float> w_scales(n);
  for (size_t j = 0; j < n; ++j) w_scales[j] = 0.01f + 0.001f * j;
  std::vector<float> bias(n);
  for (size_t j = 0; j < n; ++j) bias[j] = 0.1f * j;

  Matrix out;
  QGemmInt8(qx, w.data(), k, n, w_scales.data(), bias.data(), &out);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (size_t i = 0; i < k; ++i) {
        acc += int64_t{qx.data[r * k + i]} * w[i * n + j];
      }
      const float want = static_cast<float>(acc) *
                             (qx.scales[r] * w_scales[j]) +
                         bias[j];
      EXPECT_FLOAT_EQ(out.At(r, j), want);
    }
  }
}

TEST_F(QGemmTest, KernelAndReferenceBitIdenticalAcrossThreads) {
  // Shapes straddle the 4-way unroll (k % 4 != 0) and the row grain.
  const size_t m = 23, k = 130, n = 37;
  Matrix x = RandomMatrix(m, k, 4, 3.0);
  QuantizedRows qx;
  QuantizeRowsInt8(x, &qx);
  std::vector<int8_t> w = RandomInt8(k * n, 5);
  std::vector<float> w_scales(n, 0.02f);
  std::vector<float> bias(n, -0.5f);

  Matrix ref;
  QGemmInt8Reference(qx, w.data(), k, n, w_scales.data(), bias.data(), &ref);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SetParallelThreads(threads);
    Matrix out;
    QGemmInt8(qx, w.data(), k, n, w_scales.data(), bias.data(), &out);
    ASSERT_TRUE(out.SameShape(ref));
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out.data()[i], ref.data()[i]) << "index " << i << " with "
                                              << threads << " threads";
    }
  }
}

TEST_F(QGemmTest, NullBiasMeansZero) {
  Matrix x = RandomMatrix(2, 8, 6);
  QuantizedRows qx;
  QuantizeRowsInt8(x, &qx);
  std::vector<int8_t> w = RandomInt8(8 * 3, 7);
  std::vector<float> w_scales(3, 0.1f);
  std::vector<float> zero_bias(3, 0.0f);
  Matrix with_zero, with_null;
  QGemmInt8(qx, w.data(), 8, 3, w_scales.data(), zero_bias.data(),
            &with_zero);
  QGemmInt8(qx, w.data(), 8, 3, w_scales.data(), nullptr, &with_null);
  for (size_t i = 0; i < with_zero.size(); ++i) {
    EXPECT_EQ(with_zero.data()[i], with_null.data()[i]);
  }
}

TEST_F(QGemmTest, DotInt8MatchesNaive) {
  for (size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{129}}) {
    std::vector<int8_t> a = RandomInt8(n, 10 + n);
    std::vector<int8_t> b = RandomInt8(n, 20 + n);
    int64_t want = 0;
    for (size_t i = 0; i < n; ++i) want += int64_t{a[i]} * b[i];
    EXPECT_EQ(DotInt8(a.data(), b.data(), n), want);
    int64_t norm = 0;
    for (size_t i = 0; i < n; ++i) norm += int64_t{a[i]} * a[i];
    EXPECT_EQ(SquaredNormInt8(a.data(), n), norm);
  }
}

TEST_F(QGemmTest, EnableToggle) {
  SetQGemmEnabled(false);
  EXPECT_FALSE(QGemmEnabled());
  SetQGemmEnabled(true);
  EXPECT_TRUE(QGemmEnabled());
}

// ---- Every kernel tier the host supports, checked for exactness. ----------

using int8_kernels::Tier;

/// Random int8 codes over the full range, both extremes planted.
std::vector<int8_t> FullRangeInt8(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& e : v) {
    e = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 256.0) - 128);
  }
  if (n > 0) v[0] = -128;
  if (n > 1) v[n - 1] = 127;
  return v;
}

/// Activation rows with different sparsity: all zero, a single nonzero, an
/// odd count, about half zero (post-ReLU), and dense.
QuantizedRows SparseRows(size_t k, uint64_t seed) {
  QuantizedRows a;
  a.rows = 5;
  a.cols = k;
  a.data = FullRangeInt8(a.rows * k, seed);
  a.scales = {0.5f, 0.25f, 0.125f, 0.0625f, 1.0f};
  Rng rng(seed + 1);
  int8_t* zero_row = a.data.data();
  int8_t* single = a.data.data() + k;
  int8_t* odd = a.data.data() + 2 * k;
  int8_t* half = a.data.data() + 3 * k;
  std::fill(zero_row, zero_row + k, int8_t{0});
  std::fill(single, single + k, int8_t{0});
  single[k / 2] = -128;
  size_t nnz = 0;
  for (size_t i = 0; i < k; ++i) {
    if (i % 3 != 0) odd[i] = 0;
    nnz += odd[i] != 0;
  }
  if (nnz % 2 == 0) odd[0] = odd[0] == 0 ? int8_t{127} : int8_t{0};
  for (size_t i = 0; i < k; ++i) {
    if (rng.Uniform() < 0.5) half[i] = 0;
  }
  return a;
}

class QGemmTierTest : public QGemmTest,
                      public ::testing::WithParamInterface<Tier> {
 protected:
  int8_kernels::ScopedTier tier_{GetParam()};
};

TEST_P(QGemmTierTest, RowKernelAccumulatorsExact) {
  const int8_kernels::Table& kernels = int8_kernels::TableFor(GetParam());
  for (size_t k : {size_t{1}, size_t{7}, size_t{33}, size_t{129}}) {
    for (size_t n : {1, 15, 16, 17, 63, 64, 65, 512}) {
      const QuantizedRows a = SparseRows(k, 40 + k + n);
      const std::vector<int8_t> w = FullRangeInt8(k * n, 50 + k + n);
      std::vector<int32_t> acc(n, -1);
      std::vector<uint32_t> nz(int8_kernels::RowScratchSize(k));
      for (size_t r = 0; r < a.rows; ++r) {
        const int8_t* qx = a.data.data() + r * k;
        kernels.qgemm_row(qx, w.data(), k, n, acc.data(), nz.data());
        for (size_t j = 0; j < n; ++j) {
          int64_t want = 0;
          for (size_t i = 0; i < k; ++i) want += int64_t{qx[i]} * w[i * n + j];
          ASSERT_EQ(acc[j], want) << kernels.name << " k=" << k << " n=" << n
                                  << " row " << r << " col " << j;
        }
      }
    }
  }
}

TEST_P(QGemmTierTest, KernelMatchesReferenceByteForByte) {
  for (size_t n : {1, 15, 16, 17, 63, 64, 65, 512}) {
    const size_t k = 131;
    const QuantizedRows a = SparseRows(k, 60 + n);
    const std::vector<int8_t> w = FullRangeInt8(k * n, 70 + n);
    std::vector<float> w_scales(n), bias(n);
    for (size_t j = 0; j < n; ++j) {
      w_scales[j] = 0.003f * static_cast<float>(j % 7 + 1);
      bias[j] = 0.01f * static_cast<float>(j % 5) - 0.02f;
    }
    Matrix ref, out;
    QGemmInt8Reference(a, w.data(), k, n, w_scales.data(), bias.data(), &ref);
    for (size_t threads : {size_t{1}, size_t{3}}) {
      SetParallelThreads(threads);
      QGemmInt8(a, w.data(), k, n, w_scales.data(), bias.data(), &out);
      ASSERT_TRUE(out.SameShape(ref));
      ASSERT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)),
                0)
          << Int8KernelTier() << " n=" << n << " threads=" << threads;
    }
  }
}

TEST_P(QGemmTierTest, DotRowsMatchNaive) {
  for (size_t dim : {1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 513}) {
    const size_t stored = 11;
    const std::vector<int8_t> rows = FullRangeInt8(stored * dim, 80 + dim);
    const std::vector<int8_t> q = FullRangeInt8(dim, 90 + dim);
    // Out of order, with a repeat; counts cover the four-row groups and the
    // single-row remainder.
    const std::vector<uint32_t> ids = {7, 0, 10, 3, 3, 9, 1, 5, 2};
    for (size_t count = 0; count <= ids.size(); ++count) {
      std::vector<int32_t> dots(count, -1);
      DotInt8Rows(q.data(), rows.data(), dim, ids.data(), count, dots.data());
      for (size_t t = 0; t < count; ++t) {
        int64_t want = 0;
        for (size_t i = 0; i < dim; ++i) {
          want += int64_t{q[i]} * rows[ids[t] * dim + i];
        }
        ASSERT_EQ(dots[t], want) << Int8KernelTier() << " dim=" << dim
                                 << " count=" << count << " t=" << t;
      }
    }
    EXPECT_EQ(DotInt8(q.data(), rows.data(), dim),
              DotInt8(rows.data(), q.data(), dim));
  }
}

TEST_P(QGemmTierTest, DotExactAtMaxK) {
  // n = kQGemmMaxK at ±127 is the largest sum the int32 contract covers.
  const size_t n = kQGemmMaxK;
  const int64_t extreme = int64_t{127} * 127 * static_cast<int64_t>(n);
  ASSERT_LE(extreme, std::numeric_limits<int32_t>::max());
  const std::vector<int8_t> pos(n, 127), neg(n, -127);
  std::vector<int8_t> rows(5 * n, 127);
  std::fill(rows.begin() + 2 * n, rows.begin() + 3 * n, int8_t{-127});
  EXPECT_EQ(DotInt8(pos.data(), pos.data(), n), extreme);
  EXPECT_EQ(DotInt8(pos.data(), neg.data(), n), -extreme);
  EXPECT_EQ(SquaredNormInt8(neg.data(), n), extreme);
  const std::vector<uint32_t> ids = {0, 1, 2, 3, 4};
  std::vector<int32_t> dots(ids.size());
  DotInt8Rows(pos.data(), rows.data(), n, ids.data(), ids.size(), dots.data());
  for (size_t t = 0; t < ids.size(); ++t) {
    EXPECT_EQ(dots[t], t == 2 ? -extreme : extreme) << Int8KernelTier();
  }
}

std::string TierName(const ::testing::TestParamInfo<Tier>& info) {
  return int8_kernels::TableFor(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(QGemm, QGemmTierTest,
                         ::testing::ValuesIn(int8_kernels::HostTiers()),
                         TierName);

TEST(QGemmTiers, ProcessRunsTheWidestHostTier) {
  const std::vector<Tier> tiers = int8_kernels::HostTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kPortable);
  EXPECT_EQ(int8_kernels::Active().tier, tiers.back());
  EXPECT_STREQ(Int8KernelTier(), int8_kernels::TableFor(tiers.back()).name);
  {
    int8_kernels::ScopedTier portable(Tier::kPortable);
    EXPECT_STREQ(Int8KernelTier(), "portable");
  }
  EXPECT_EQ(int8_kernels::Active().tier, tiers.back());
}

}  // namespace
}  // namespace magneto
