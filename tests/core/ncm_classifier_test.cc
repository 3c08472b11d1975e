#include "core/ncm_classifier.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace magneto::core {
namespace {

class IdentityEmbedder : public Embedder {
 public:
  Matrix Embed(const Matrix& features) override { return features; }
  size_t embedding_dim() const override { return 2; }
};

NcmClassifier TwoClassClassifier() {
  NcmClassifier ncm;
  // Prototypes at (0,0) and (10,0).
  MAGNETO_CHECK(
      ncm.SetPrototypeFromEmbeddings(0, Matrix(1, 2, {0, 0})).ok());
  MAGNETO_CHECK(
      ncm.SetPrototypeFromEmbeddings(1, Matrix(1, 2, {10, 0})).ok());
  return ncm;
}

TEST(NcmClassifierTest, PrototypeIsClassMean) {
  NcmClassifier ncm;
  Matrix embeddings(3, 2, {0, 0, 2, 4, 4, 2});
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(7, embeddings).ok());
  auto proto = ncm.Prototype(7);
  ASSERT_TRUE(proto.ok());
  EXPECT_FLOAT_EQ(proto.value()[0], 2.0f);
  EXPECT_FLOAT_EQ(proto.value()[1], 2.0f);
}

TEST(NcmClassifierTest, ClassifiesByNearestPrototype) {
  NcmClassifier ncm = TwoClassClassifier();
  const std::vector<float> near0{1.0f, 1.0f};
  auto pred = ncm.Classify(near0);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred.value().activity, 0);
  EXPECT_NEAR(pred.value().distance, std::sqrt(2.0), 1e-5);

  const std::vector<float> near1{9.0f, -1.0f};
  EXPECT_EQ(ncm.Classify(near1).value().activity, 1);
}

TEST(NcmClassifierTest, ConfidenceReflectsMarginBetweenPrototypes) {
  NcmClassifier ncm = TwoClassClassifier();
  auto confident = ncm.Classify({0.0f, 0.0f}).value();
  auto borderline = ncm.Classify({5.0f, 0.0f}).value();
  EXPECT_GT(confident.confidence, 0.99);
  EXPECT_NEAR(borderline.confidence, 0.5, 1e-6);
  EXPECT_GE(confident.confidence, borderline.confidence);
}

TEST(NcmClassifierTest, DistancesSortedAscending) {
  NcmClassifier ncm = TwoClassClassifier();
  ASSERT_TRUE(
      ncm.SetPrototypeFromEmbeddings(2, Matrix(1, 2, {3, 0})).ok());
  const std::vector<float> q{1.0f, 0.0f};
  auto distances = ncm.Distances(q.data(), q.size()).value();
  ASSERT_EQ(distances.size(), 3u);
  EXPECT_EQ(distances[0].first, 0);
  EXPECT_EQ(distances[1].first, 2);
  EXPECT_EQ(distances[2].first, 1);
  EXPECT_LE(distances[0].second, distances[1].second);
  EXPECT_LE(distances[1].second, distances[2].second);
}

TEST(NcmClassifierTest, AddingClassNeedsNoRetraining) {
  // The property the paper builds on: a class is added by one prototype
  // insert, and existing decisions away from it are untouched.
  NcmClassifier ncm = TwoClassClassifier();
  const std::vector<float> q{1.0f, 1.0f};
  EXPECT_EQ(ncm.Classify(q).value().activity, 0);
  ASSERT_TRUE(
      ncm.SetPrototypeFromEmbeddings(5, Matrix(1, 2, {100, 100})).ok());
  EXPECT_EQ(ncm.num_classes(), 3u);
  EXPECT_EQ(ncm.Classify(q).value().activity, 0);  // unchanged
  EXPECT_EQ(ncm.Classify({99.0f, 99.0f}).value().activity, 5);
}

TEST(NcmClassifierTest, RemoveClass) {
  NcmClassifier ncm = TwoClassClassifier();
  ASSERT_TRUE(ncm.RemoveClass(1).ok());
  EXPECT_EQ(ncm.num_classes(), 1u);
  EXPECT_EQ(ncm.RemoveClass(1).code(), StatusCode::kNotFound);
  // Every query now lands on the remaining class.
  EXPECT_EQ(ncm.Classify({100.0f, 0.0f}).value().activity, 0);
}

TEST(NcmClassifierTest, DimMismatchRejected) {
  NcmClassifier ncm = TwoClassClassifier();
  EXPECT_EQ(ncm.Classify({1.0f}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      ncm.SetPrototypeFromEmbeddings(9, Matrix(1, 3, {1, 2, 3})).ok());
}

TEST(NcmClassifierTest, EmptyClassifierFailsClassification) {
  NcmClassifier ncm;
  EXPECT_EQ(ncm.Classify({1.0f, 2.0f}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NcmClassifierTest, EmptyEmbeddingBatchRejected) {
  NcmClassifier ncm;
  EXPECT_FALSE(ncm.SetPrototypeFromEmbeddings(0, Matrix(0, 2)).ok());
}

TEST(NcmClassifierTest, FromSupportSetBuildsAllPrototypes) {
  SupportSet support(4, SelectionStrategy::kRandom);
  Rng rng(1);
  sensors::FeatureDataset c0, c1;
  for (int i = 0; i < 6; ++i) {
    c0.Append({0.0f + i * 0.01f, 0.0f}, 0);
    c1.Append({8.0f + i * 0.01f, 0.0f}, 1);
  }
  ASSERT_TRUE(support.SetClass(0, c0, nullptr, &rng).ok());
  ASSERT_TRUE(support.SetClass(1, c1, nullptr, &rng).ok());

  IdentityEmbedder embedder;
  auto ncm = NcmClassifier::FromSupportSet(support, &embedder);
  ASSERT_TRUE(ncm.ok());
  EXPECT_EQ(ncm.value().num_classes(), 2u);
  EXPECT_EQ(ncm.value().Classify({0.5f, 0.0f}).value().activity, 0);
  EXPECT_EQ(ncm.value().Classify({7.5f, 0.0f}).value().activity, 1);
}

TEST(NcmClassifierTest, FromEmptySupportSetFails) {
  SupportSet support(4, SelectionStrategy::kRandom);
  IdentityEmbedder embedder;
  EXPECT_FALSE(NcmClassifier::FromSupportSet(support, &embedder).ok());
  EXPECT_FALSE(NcmClassifier::FromSupportSet(support, nullptr).ok());
}

TEST(NcmClassifierTest, RejectionThresholdYieldsUnknown) {
  NcmClassifier ncm = TwoClassClassifier();
  const std::vector<float> far{100.0f, 100.0f};  // ~134 from both prototypes
  auto accepted = ncm.Classify(far).value();
  EXPECT_NE(accepted.activity, kUnknownActivity);

  auto rejected =
      ncm.ClassifyWithRejection(far.data(), far.size(), 50.0).value();
  EXPECT_EQ(rejected.activity, kUnknownActivity);
  EXPECT_TRUE(rejected.is_unknown());
  // Distance of the would-be winner is preserved for display.
  EXPECT_NEAR(rejected.distance, accepted.distance, 1e-9);

  // Close queries are unaffected by the threshold.
  const std::vector<float> near{0.5f, 0.0f};
  auto kept = ncm.ClassifyWithRejection(near.data(), near.size(), 50.0)
                  .value();
  EXPECT_EQ(kept.activity, 0);
}

TEST(NcmClassifierTest, SerializationRoundTrip) {
  NcmClassifier ncm = TwoClassClassifier();
  BinaryWriter w;
  ncm.Serialize(&w);
  BinaryReader r(w.buffer());
  auto back = NcmClassifier::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_classes(), 2u);
  EXPECT_EQ(back.value().embedding_dim(), 2u);
  EXPECT_EQ(back.value().Classify({9.0f, 0.0f}).value().activity, 1);
}

TEST(NcmClassifierTest, DeserializeRejectsDimMismatch) {
  BinaryWriter w;
  w.WriteU64(3);  // dim 3
  w.WriteU64(1);  // one prototype
  w.WriteI64(0);
  w.WriteF32Vector({1.0f, 2.0f});  // but only 2 floats
  BinaryReader r(w.buffer());
  EXPECT_FALSE(NcmClassifier::Deserialize(&r).ok());
}

TEST(NcmClassifierTest, DeserializeRejectsDuplicateClassId) {
  // A header promising two prototypes must not load as one: the second
  // record of class 5 used to silently overwrite the first.
  BinaryWriter writer;
  writer.WriteU64(2);  // dim
  writer.WriteU64(2);  // prototypes
  writer.WriteI64(5);
  writer.WriteF32Vector({1.0f, 2.0f});
  writer.WriteI64(5);
  writer.WriteF32Vector({3.0f, 4.0f});
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(NcmClassifier::Deserialize(&reader).status().code(),
            StatusCode::kCorruption);
}

TEST(NcmClassifierTest, DeserializeSortsClassIds) {
  // Records in any id order load into the ascending-id store and
  // re-serialize in canonical order.
  BinaryWriter writer;
  writer.WriteU64(2);
  writer.WriteU64(2);
  writer.WriteI64(9);
  writer.WriteF32Vector({10.0f, 0.0f});
  writer.WriteI64(3);
  writer.WriteF32Vector({0.0f, 0.0f});
  BinaryReader reader(writer.buffer());
  auto ncm = NcmClassifier::Deserialize(&reader);
  ASSERT_TRUE(ncm.ok()) << ncm.status();
  EXPECT_EQ(ncm.value().Classes(), (std::vector<sensors::ActivityId>{3, 9}));
  EXPECT_EQ(ncm.value().Classify({9.0f, 0.0f}).value().activity, 9);
  EXPECT_EQ(ncm.value().Prototype(9).value(), (std::vector<float>{10, 0}));
}

TEST(NcmClassifierTest, QuantizePrototypesEmptyFails) {
  NcmClassifier ncm;
  EXPECT_EQ(ncm.QuantizePrototypes().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ncm.quantized());
}

TEST(NcmClassifierTest, QuantizedScanAgreesWithFp32) {
  NcmClassifier fp = TwoClassClassifier();
  NcmClassifier q = fp;
  ASSERT_TRUE(q.QuantizePrototypes().ok());
  EXPECT_TRUE(q.quantized());
  EXPECT_FALSE(fp.quantized());
  for (float x : {0.0f, 1.5f, 3.0f, 7.0f, 8.5f, 10.0f}) {
    const std::vector<float> probe{x, 0.4f};
    auto pf = fp.Classify(probe).value();
    auto pq = q.Classify(probe).value();
    EXPECT_EQ(pf.activity, pq.activity) << "probe x=" << x;
    EXPECT_NEAR(pf.distance, pq.distance, 0.05 * (pf.distance + 1.0));
  }
}

TEST(NcmClassifierTest, QuantizePrototypesIsIdempotent) {
  NcmClassifier ncm = TwoClassClassifier();
  ASSERT_TRUE(ncm.QuantizePrototypes().ok());
  const std::vector<float> p1 = ncm.Prototype(1).value();
  const double d1 = ncm.Classify({3.0f, 1.0f}).value().distance;
  // The max-|q| element of a quantized vector is exactly ±127, so a second
  // quantization of the dequantized prototype recovers the identical scale
  // and codes: nothing may move.
  ASSERT_TRUE(ncm.QuantizePrototypes().ok());
  const std::vector<float> p2 = ncm.Prototype(1).value();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
  EXPECT_EQ(ncm.Classify({3.0f, 1.0f}).value().distance, d1);
}

TEST(NcmClassifierTest, QuantizedClassifierTracksUpdatesAndRemovals) {
  NcmClassifier ncm = TwoClassClassifier();
  ASSERT_TRUE(ncm.QuantizePrototypes().ok());
  // A prototype added after quantization joins the int8 scan.
  ASSERT_TRUE(
      ncm.SetPrototypeFromEmbeddings(2, Matrix(1, 2, {0, 10})).ok());
  EXPECT_EQ(ncm.Classify({0.2f, 9.5f}).value().activity, 2);
  ASSERT_TRUE(ncm.RemoveClass(2).ok());
  EXPECT_NE(ncm.Classify({0.2f, 9.5f}).value().activity, 2);
}

TEST(NcmClassifierTest, ScratchReuseIsByteIdentical) {
  // Mirror of the KnnClassifier scratch contract: a reused caller-provided
  // scratch — even one carrying stale capacity from a larger classifier —
  // must produce byte-identical predictions to the scratch-free overload.
  NcmClassifier small = TwoClassClassifier();
  NcmClassifier big;
  for (int c = 0; c < 12; ++c) {
    MAGNETO_CHECK(big.SetPrototypeFromEmbeddings(
                         c, Matrix(1, 2, {static_cast<float>(5 * c), 1.0f}))
                      .ok());
  }
  NcmClassifier::Scratch scratch;
  for (float x : {0.0f, 3.0f, 5.1f, 27.0f, 55.0f}) {
    const std::vector<float> q{x, 0.5f};
    Prediction big_pred = big.Classify(q.data(), q.size(), &scratch).value();
    Prediction big_ref = big.Classify(q).value();
    Prediction small_pred =
        small.Classify(q.data(), q.size(), &scratch).value();
    Prediction small_ref = small.Classify(q).value();
    EXPECT_EQ(std::memcmp(&big_pred, &big_ref, sizeof(Prediction)), 0)
        << "big, x=" << x;
    EXPECT_EQ(std::memcmp(&small_pred, &small_ref, sizeof(Prediction)), 0)
        << "small, x=" << x;
    Prediction rej_pred =
        big.ClassifyWithRejection(q.data(), q.size(), 2.0, &scratch).value();
    Prediction rej_ref =
        big.ClassifyWithRejection(q.data(), q.size(), 2.0).value();
    EXPECT_EQ(std::memcmp(&rej_pred, &rej_ref, sizeof(Prediction)), 0)
        << "reject, x=" << x;
  }
}

TEST(NcmClassifierTest, NonFinitePrototypeRanksLast) {
  // Regression: a NaN prototype distance used to reach std::sort's
  // comparator, which is UB (NaN breaks strict weak ordering). Sanitized to
  // +inf it sorts last and can never win.
  NcmClassifier ncm;
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(
                     0, Matrix(1, 2,
                               {std::numeric_limits<float>::quiet_NaN(), 0}))
                  .ok());
  ASSERT_TRUE(ncm.SetPrototypeFromEmbeddings(1, Matrix(1, 2, {5, 0})).ok());
  auto pred = ncm.Classify({5.0f, 0.0f}).value();
  EXPECT_EQ(pred.activity, 1);
  EXPECT_TRUE(std::isfinite(pred.distance));
  const std::vector<float> q{5.0f, 0.0f};
  auto all = ncm.Distances(q.data(), q.size()).value();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].first, 0);  // poisoned prototype sorted last
  EXPECT_TRUE(std::isinf(all[1].second));
}

// `classes` prototypes on a widely spaced 2-D grid.
NcmClassifier GridNcm(int classes) {
  NcmClassifier ncm;
  for (int c = 0; c < classes; ++c) {
    const float cx = static_cast<float>(c % 8) * 20.0f;
    const float cy = static_cast<float>(c / 8) * 20.0f;
    MAGNETO_CHECK(
        ncm.SetPrototypeFromEmbeddings(c, Matrix(1, 2, {cx, cy})).ok());
  }
  return ncm;
}

AnnOptions SmallAnn(size_t nlist, size_t nprobe) {
  AnnOptions options;
  options.min_index_size = 1;
  options.nlist = nlist;
  options.nprobe = nprobe;
  return options;
}

TEST(NcmClassifierTest, AnnFullProbeMatchesExactActivityAndDistance) {
  NcmClassifier exact = GridNcm(32);
  NcmClassifier ann = exact;
  ASSERT_TRUE(ann.EnableAnn(SmallAnn(8, 8)).ok());
  ASSERT_TRUE(ann.ann_active());
  EXPECT_TRUE(ann.ann_enabled());
  EXPECT_FALSE(exact.ann_active());

  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    const std::vector<float> q{static_cast<float>(rng.Uniform(-5.0, 150.0)),
                               static_cast<float>(rng.Uniform(-5.0, 70.0))};
    auto pe = exact.Classify(q).value();
    auto pa = ann.Classify(q).value();
    EXPECT_EQ(pe.activity, pa.activity) << "trial " << t;
    EXPECT_DOUBLE_EQ(pe.distance, pa.distance) << "trial " << t;
  }
}

TEST(NcmClassifierTest, AnnRebuildsOnEveryMutation) {
  NcmClassifier ncm = GridNcm(32);
  ASSERT_TRUE(ncm.EnableAnn(SmallAnn(8, 2)).ok());
  ASSERT_TRUE(ncm.ann_active());

  // New class lands in the index immediately.
  ASSERT_TRUE(
      ncm.SetPrototypeFromEmbeddings(500, Matrix(1, 2, {300, 300})).ok());
  EXPECT_EQ(ncm.Classify({299.0f, 301.0f}).value().activity, 500);

  // A removed class is gone from the candidate pool immediately.
  ASSERT_TRUE(ncm.RemoveClass(500).ok());
  EXPECT_NE(ncm.Classify({299.0f, 301.0f}).value().activity, 500);

  // Quantization re-trains the quantizer on the dequantized prototypes and
  // keeps serving.
  ASSERT_TRUE(ncm.QuantizePrototypes().ok());
  EXPECT_TRUE(ncm.ann_active());
  EXPECT_EQ(ncm.Classify({20.0f, 0.5f}).value().activity, 1);
}

TEST(NcmClassifierTest, AnnBelowThresholdFallsBackToExact) {
  NcmClassifier ncm = TwoClassClassifier();
  AnnOptions options;
  options.min_index_size = 100;  // 2 classes < threshold
  ASSERT_TRUE(ncm.EnableAnn(options).ok());
  EXPECT_TRUE(ncm.ann_enabled());
  EXPECT_FALSE(ncm.ann_active());
  NcmClassifier exact = TwoClassClassifier();
  for (float x : {0.0f, 4.9f, 5.1f, 10.0f}) {
    const std::vector<float> q{x, 0.0f};
    Prediction pa = ncm.Classify(q).value();
    Prediction pe = exact.Classify(q).value();
    EXPECT_EQ(std::memcmp(&pa, &pe, sizeof(Prediction)), 0) << "x=" << x;
  }
  ncm.DisableAnn();
  EXPECT_FALSE(ncm.ann_enabled());
}

TEST(NcmClassifierTest, AnnNotSerialized) {
  NcmClassifier ncm = GridNcm(32);
  ASSERT_TRUE(ncm.EnableAnn(SmallAnn(8, 2)).ok());
  ASSERT_TRUE(ncm.ann_active());
  BinaryWriter with_ann;
  ncm.Serialize(&with_ann);
  BinaryWriter without_ann;
  GridNcm(32).Serialize(&without_ann);
  EXPECT_EQ(with_ann.buffer(), without_ann.buffer());  // wire format unchanged
  BinaryReader reader(with_ann.buffer());
  auto back = NcmClassifier::Deserialize(&reader);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back.value().ann_enabled());  // deserialized = exact
}

TEST(NcmClassifierTest, DistancesAlwaysCoversEveryPrototype) {
  // `Distances` promises a distance to *every* prototype; ANN must not
  // truncate it.
  NcmClassifier ncm = GridNcm(32);
  ASSERT_TRUE(ncm.EnableAnn(SmallAnn(8, 1)).ok());
  const std::vector<float> q{0.0f, 0.0f};
  auto all = ncm.Distances(q.data(), q.size()).value();
  EXPECT_EQ(all.size(), 32u);
}

TEST(NcmClassifierTest, ConcurrentAnnClassifyWithPerThreadScratch) {
  // ANN classify is read-only over an immutable shared index: concurrent
  // calls with distinct scratches must agree with serial answers (run under
  // -DMAGNETO_SANITIZE=thread via check.sh's ANN leg).
  NcmClassifier ncm = GridNcm(32);
  ASSERT_TRUE(ncm.EnableAnn(SmallAnn(8, 3)).ok());
  ASSERT_TRUE(ncm.ann_active());
  std::vector<std::vector<float>> queries;
  for (int c = 0; c < 8; ++c) {
    queries.push_back({static_cast<float>(c % 8) * 20.0f + 0.5f,
                       static_cast<float>(c / 8) * 20.0f - 0.5f});
  }
  std::vector<Prediction> expected;
  for (const auto& q : queries) expected.push_back(ncm.Classify(q).value());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      NcmClassifier::Scratch scratch;
      for (int rep = 0; rep < 50; ++rep) {
        const size_t qi = static_cast<size_t>((t + rep) % queries.size());
        auto pred =
            ncm.Classify(queries[qi].data(), queries[qi].size(), &scratch);
        if (!pred.ok() ||
            std::memcmp(&pred.value(), &expected[qi], sizeof(Prediction)) !=
                0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace magneto::core
