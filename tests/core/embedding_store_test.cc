#include "core/embedding_store.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/qgemm.h"
#include "common/random.h"

namespace magneto::core {
namespace {

/// `clusters` tight blobs of `per_cluster` rows, centers far apart.
Matrix Blobs(size_t clusters, size_t per_cluster, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Matrix data(clusters * per_cluster, dim);
  for (size_t c = 0; c < clusters; ++c) {
    std::vector<float> center(dim);
    for (float& v : center) v = static_cast<float>(rng.Uniform(-5.0, 5.0));
    for (size_t i = 0; i < per_cluster; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        data.At(c * per_cluster + i, j) =
            center[j] + static_cast<float>(rng.Normal(0.0, 0.1));
      }
    }
  }
  return data;
}

AnnOptions Ann(size_t nlist, size_t nprobe, size_t min_index_size) {
  AnnOptions options;
  options.enable = true;
  options.nlist = nlist;
  options.nprobe = nprobe;
  options.min_index_size = min_index_size;
  return options;
}

TEST(EmbeddingStoreTest, Fp32ScanReportsSquaredL2OfEveryRow) {
  const Matrix rows = Blobs(3, 4, 8, 1);
  const EmbeddingStore store(rows, /*int8=*/false);
  EXPECT_EQ(store.size(), 12u);
  EXPECT_EQ(store.dim(), 8u);
  EXPECT_EQ(store.MemoryBytes(), 12u * 8u * sizeof(float));
  EmbeddingStore::Scratch scratch;
  store.Scan(rows.RowPtr(5), /*use_index=*/true, &scratch);
  ASSERT_EQ(scratch.rows.size(), 12u);
  ASSERT_EQ(scratch.d2.size(), 12u);
  for (uint32_t r = 0; r < 12; ++r) {
    EXPECT_EQ(scratch.rows[r], r);
    EXPECT_EQ(scratch.d2[r],
              static_cast<double>(
                  SquaredL2(rows.RowPtr(5), rows.RowPtr(r), rows.cols())));
  }
  EXPECT_EQ(scratch.d2[5], 0.0);
}

TEST(EmbeddingStoreTest, Int8ScanIsExactRescaleOverStoredCodes) {
  const Matrix rows = Blobs(3, 4, 8, 2);
  const EmbeddingStore store(rows, /*int8=*/true);
  EXPECT_TRUE(store.int8());
  EXPECT_EQ(store.MemoryBytes(),
            12u * (8u + sizeof(float) + sizeof(int32_t)));
  const std::vector<float> query(rows.RowPtr(7), rows.RowPtr(7) + 8);
  std::vector<int8_t> qx(8), qi(8);
  const double sq = QuantizeRowInt8(query.data(), 8, qx.data());
  EmbeddingStore::Scratch scratch;
  store.Scan(query.data(), /*use_index=*/false, &scratch);
  ASSERT_EQ(scratch.d2.size(), 12u);
  for (size_t r = 0; r < 12; ++r) {
    const double si = QuantizeRowInt8(rows.RowPtr(r), 8, qi.data());
    const double expected =
        sq * sq * SquaredNormInt8(qx.data(), 8) -
        2.0 * sq * si * DotInt8(qx.data(), qi.data(), 8) +
        si * si * SquaredNormInt8(qi.data(), 8);
    EXPECT_EQ(scratch.d2[r], std::max(0.0, expected)) << "row " << r;
    // CopyRow reports the dequantized codes the scan compares against.
    std::vector<float> row(8);
    store.CopyRow(r, row.data());
    for (size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(row[j], static_cast<float>(qi[j]) * static_cast<float>(si));
    }
  }
  EXPECT_GE(scratch.d2[7], 0.0);
  EXPECT_LT(scratch.d2[7], 1e-3);
}

TEST(EmbeddingStoreTest, InsertAndEraseKeepRowOrderAndDropTheIndex) {
  for (bool int8 : {false, true}) {
    EmbeddingStore store(Blobs(2, 4, 4, 3), int8);
    ASSERT_TRUE(store.RebuildIndex(Ann(2, 1, 1), nullptr).ok());
    ASSERT_TRUE(store.indexed());
    const std::vector<float> row{1.0f, -2.0f, 3.0f, -4.0f};
    store.Insert(3, row.data());
    EXPECT_FALSE(store.indexed());
    EXPECT_EQ(store.size(), 9u);
    EmbeddingStore::Scratch scratch;
    store.Scan(row.data(), /*use_index=*/true, &scratch);
    ASSERT_EQ(scratch.d2.size(), 9u);
    EXPECT_LT(scratch.d2[3], 1e-3) << "int8=" << int8;
    const Matrix before = store.Rows();
    store.Erase(3);
    EXPECT_EQ(store.size(), 8u);
    const Matrix after = store.Rows();
    for (size_t r = 0; r < 8; ++r) {
      const size_t src = r < 3 ? r : r + 1;
      EXPECT_EQ(std::memcmp(after.RowPtr(r), before.RowPtr(src),
                            4 * sizeof(float)),
                0)
          << "row " << r << " int8=" << int8;
    }
  }
}

TEST(EmbeddingStoreTest, IndexBuiltOnlyWhenEnabledAndLargeEnough) {
  const Matrix rows = Blobs(4, 8, 4, 4);
  EmbeddingStore store(rows, /*int8=*/false);
  AnnOptions disabled = Ann(4, 1, 1);
  disabled.enable = false;
  ASSERT_TRUE(store.RebuildIndex(disabled, &rows).ok());
  EXPECT_FALSE(store.indexed());
  ASSERT_TRUE(store.RebuildIndex(Ann(4, 1, 33), &rows).ok());
  EXPECT_FALSE(store.indexed());  // 32 rows < min_index_size
  ASSERT_TRUE(store.RebuildIndex(Ann(4, 1, 32), &rows).ok());
  EXPECT_TRUE(store.indexed());
  store.DropIndex();
  EXPECT_FALSE(store.indexed());
  EmbeddingStore empty(4, /*int8=*/false);
  ASSERT_TRUE(empty.RebuildIndex(Ann(4, 1, 0), nullptr).ok());
  EXPECT_FALSE(empty.indexed());
}

TEST(EmbeddingStoreTest, IndexedScanVisitsCandidatesWithFullScanDistances) {
  for (bool int8 : {false, true}) {
    const Matrix rows = Blobs(8, 16, 6, 5);
    EmbeddingStore store(rows, int8);
    ASSERT_TRUE(store.RebuildIndex(Ann(8, 2, 1), &rows).ok());
    EmbeddingStore::Scratch full, narrow;
    const float* query = rows.RowPtr(40);
    store.Scan(query, /*use_index=*/false, &full);
    store.Scan(query, /*use_index=*/true, &narrow);
    ASSERT_EQ(full.rows.size(), rows.rows());
    ASSERT_LT(narrow.rows.size(), rows.rows());
    ASSERT_EQ(narrow.rows.size(), narrow.d2.size());
    bool found_self = false;
    for (size_t i = 0; i < narrow.rows.size(); ++i) {
      // Same arithmetic either way: the index only picks the rows.
      EXPECT_EQ(narrow.d2[i], full.d2[narrow.rows[i]]);
      found_self |= narrow.rows[i] == 40;
    }
    EXPECT_TRUE(found_self) << "int8=" << int8;
  }
}

TEST(EmbeddingStoreTest, ConcurrentScanWithPerThreadScratch) {
  // Scan is const over an immutable shared index: concurrent calls with
  // distinct scratches must agree with serial answers (run under
  // -DMAGNETO_SANITIZE=thread via check.sh).
  const Matrix rows = Blobs(8, 16, 6, 6);
  EmbeddingStore store(rows, /*int8=*/true);
  ASSERT_TRUE(store.RebuildIndex(Ann(8, 3, 1), &rows).ok());
  std::vector<std::vector<double>> expected;
  for (size_t q = 0; q < 8; ++q) {
    EmbeddingStore::Scratch scratch;
    store.Scan(rows.RowPtr(q * 16), /*use_index=*/true, &scratch);
    expected.push_back(scratch.d2);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      EmbeddingStore::Scratch scratch;
      for (int rep = 0; rep < 50; ++rep) {
        const size_t q = static_cast<size_t>(t + rep) % expected.size();
        store.Scan(rows.RowPtr(q * 16), /*use_index=*/true, &scratch);
        if (scratch.d2 != expected[q]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace magneto::core
