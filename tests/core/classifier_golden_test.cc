// Golden outputs of the two support-set classifiers. Every configuration —
// {NCM, KNN} x {fp32, int8} x {exact, ANN with nprobe < nlist} — classifies
// the same fixed-seed queries, and a 64-bit digest of the raw result bits
// (predicted activity, distance and confidence bit patterns, NCM
// `Distances()`, KNN `Neighbors()`) is compared against a pinned value. Any
// change to the distance arithmetic, the ranking or the candidate selection
// moves a digest; a pure storage refactor must not.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/int8_kernels.h"
#include "common/qgemm.h"
#include "core/knn_classifier.h"
#include "core/ncm_classifier.h"

namespace magneto::core {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kBlobs = 50;
constexpr size_t kRowsPerBlob = 20;
constexpr size_t kQueries = 200;
constexpr size_t kNeighbors = 40;  // > kRowsPerBlob: reaches past the blob

class IdentityEmbedder : public Embedder {
 public:
  Matrix Embed(const Matrix& features) override { return features; }
  size_t embedding_dim() const override { return kDim; }
};

/// Box-Muller over raw mt19937_64 words: unlike std::normal_distribution,
/// the sequence is fixed by the standard, not by the library vendor.
class Gaussian {
 public:
  explicit Gaussian(uint64_t seed) : engine_(seed) {}
  float Next(double stddev) {
    const double u1 = (static_cast<double>(engine_() >> 11) + 1.0) * 0x1p-53;
    const double u2 = static_cast<double>(engine_() >> 11) * 0x1p-53;
    return static_cast<float>(stddev * std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(6.283185307179586 * u2));
  }

 private:
  std::mt19937_64 engine_;
};

struct Fixture {
  SupportSet support{kRowsPerBlob, SelectionStrategy::kRandom};
  std::vector<std::vector<float>> queries;
};

const Fixture& Data() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture;
    Gaussian g(0xB10B5);
    std::vector<std::vector<float>> centers(kBlobs, std::vector<float>(kDim));
    for (auto& c : centers) {
      for (float& v : c) v = g.Next(3.0);
    }
    Rng rng(7);
    for (size_t b = 0; b < kBlobs; ++b) {
      sensors::FeatureDataset rows;
      // Non-contiguous ids: the store order is ascending id, not insertion.
      const sensors::ActivityId id = static_cast<sensors::ActivityId>(
          (b * 37) % kBlobs * 3 + 1);
      for (size_t r = 0; r < kRowsPerBlob; ++r) {
        std::vector<float> row(kDim);
        for (size_t j = 0; j < kDim; ++j) row[j] = centers[b][j] + g.Next(1.0);
        rows.Append(row, id);
      }
      MAGNETO_CHECK(f->support.SetClass(id, rows, nullptr, &rng).ok());
    }
    for (size_t q = 0; q < kQueries; ++q) {
      const std::vector<float>& c = centers[q % kBlobs];
      std::vector<float> query(kDim);
      for (size_t j = 0; j < kDim; ++j) query[j] = c[j] + g.Next(2.0);
      f->queries.push_back(std::move(query));
    }
    return f;
  }();
  return *fixture;
}

/// FNV-1a over raw bytes.
class Digest {
 public:
  template <typename T>
  void Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const Prediction& p) {
    Add<int64_t>(p.activity);
    Add(p.distance);
    Add(p.confidence);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

AnnOptions NarrowAnn(size_t nlist, size_t nprobe, size_t min_index_size) {
  AnnOptions ann;
  ann.enable = true;
  ann.nlist = nlist;
  ann.nprobe = nprobe;
  ann.min_index_size = min_index_size;
  return ann;
}

uint64_t NcmDigest(bool int8, bool ann) {
  IdentityEmbedder embedder;
  NcmClassifier ncm =
      NcmClassifier::FromSupportSet(Data().support, &embedder).value();
  if (int8) MAGNETO_CHECK(ncm.QuantizePrototypes().ok());
  if (ann) {
    MAGNETO_CHECK(ncm.EnableAnn(NarrowAnn(8, 3, 16)).ok());
    MAGNETO_CHECK(ncm.ann_active());
  }
  MAGNETO_CHECK(ncm.quantized() == int8);
  Digest digest;
  NcmClassifier::Scratch scratch;
  for (const std::vector<float>& q : Data().queries) {
    digest.Add(ncm.Classify(q.data(), q.size(), &scratch).value());
    const auto distances = ncm.Distances(q.data(), q.size()).value();
    for (const auto& [id, d] : distances) {
      digest.Add<int64_t>(id);
      digest.Add(d);
    }
  }
  return digest.value();
}

uint64_t KnnDigest(bool int8, bool ann) {
  IdentityEmbedder embedder;
  KnnClassifier::Options options;
  options.quantize_exemplars = int8;
  if (ann) options.ann = NarrowAnn(32, 2, 64);
  KnnClassifier knn =
      KnnClassifier::FromSupportSet(Data().support, &embedder, options)
          .value();
  MAGNETO_CHECK(knn.ann_active() == ann);
  Digest digest;
  KnnClassifier::Scratch scratch;
  for (const std::vector<float>& q : Data().queries) {
    digest.Add(knn.Classify(q.data(), q.size(), &scratch).value());
    const auto neighbors =
        knn.Neighbors(q.data(), q.size(), kNeighbors, &scratch).value();
    for (const auto& [d2, row] : neighbors) {
      digest.Add(d2);
      digest.Add(row);
    }
  }
  return digest.value();
}

constexpr uint64_t kNcmFp32Exact = 0xe0e6e16c9e51e136ULL;
constexpr uint64_t kNcmFp32Ann = 0x8378d70cb166ae37ULL;
constexpr uint64_t kNcmInt8Exact = 0xd6600398d36828a8ULL;
constexpr uint64_t kNcmInt8Ann = 0x09fe1e74770fa775ULL;
constexpr uint64_t kKnnFp32Exact = 0x067723f5f32ab143ULL;
constexpr uint64_t kKnnFp32Ann = 0xe84373e306acb32dULL;
constexpr uint64_t kKnnInt8Exact = 0x11db9a03a3c195a7ULL;
constexpr uint64_t kKnnInt8Ann = 0x914b8b6dfc3e66b7ULL;

TEST(ClassifierGoldenTest, NcmFp32Exact) {
  EXPECT_EQ(NcmDigest(false, false), kNcmFp32Exact);
}
TEST(ClassifierGoldenTest, NcmFp32Ann) {
  EXPECT_EQ(NcmDigest(false, true), kNcmFp32Ann);
}
TEST(ClassifierGoldenTest, NcmInt8Exact) {
  EXPECT_EQ(NcmDigest(true, false), kNcmInt8Exact);
}
TEST(ClassifierGoldenTest, NcmInt8Ann) {
  EXPECT_EQ(NcmDigest(true, true), kNcmInt8Ann);
}
TEST(ClassifierGoldenTest, KnnFp32Exact) {
  EXPECT_EQ(KnnDigest(false, false), kKnnFp32Exact);
}
TEST(ClassifierGoldenTest, KnnFp32Ann) {
  EXPECT_EQ(KnnDigest(false, true), kKnnFp32Ann);
}
TEST(ClassifierGoldenTest, KnnInt8Exact) {
  EXPECT_EQ(KnnDigest(true, false), kKnnInt8Exact);
}
TEST(ClassifierGoldenTest, KnnInt8Ann) {
  EXPECT_EQ(KnnDigest(true, true), kKnnInt8Ann);
}

// The same eight digests with the int8 kernels forced to each tier the host
// supports: the tiers return exact integers, so no digest may move.
TEST(ClassifierGoldenTest, EveryInt8KernelTier) {
  for (int8_kernels::Tier tier : int8_kernels::HostTiers()) {
    int8_kernels::ScopedTier scoped(tier);
    SCOPED_TRACE(Int8KernelTier());
    EXPECT_EQ(NcmDigest(false, false), kNcmFp32Exact);
    EXPECT_EQ(NcmDigest(false, true), kNcmFp32Ann);
    EXPECT_EQ(NcmDigest(true, false), kNcmInt8Exact);
    EXPECT_EQ(NcmDigest(true, true), kNcmInt8Ann);
    EXPECT_EQ(KnnDigest(false, false), kKnnFp32Exact);
    EXPECT_EQ(KnnDigest(false, true), kKnnFp32Ann);
    EXPECT_EQ(KnnDigest(true, false), kKnnInt8Exact);
    EXPECT_EQ(KnnDigest(true, true), kKnnInt8Ann);
  }
}

}  // namespace
}  // namespace magneto::core
