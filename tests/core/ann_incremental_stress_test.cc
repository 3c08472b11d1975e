// Incremental-learning stress at hundred-class scale (ISSUE 10, satellite 5):
// sequential `LearnNewActivity` commits against a large procedural
// vocabulary with the ANN prototype index enabled. After every commit the
// ANN path must agree with an exact scan of the same classifier, and a
// rollback injected at any update step must leave predictions byte-identical
// with the index still serving.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental_learner.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

struct VocabDeployment {
  EdgeModel model;
  SupportSet support;
};

/// Small pretrained bundle grown to `num_classes` extra procedural classes:
/// their windows go through the frozen pipeline into the support set and the
/// prototypes are rebuilt once — no per-class training, which keeps a
/// 200-class deployment inside a unit-test budget.
VocabDeployment DeployLargeVocabulary(size_t num_classes) {
  ModelBundle bundle = testing::SmallPretrainedBundle(401);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();

  sensors::LargeVocabularyOptions vocab;
  vocab.num_classes = num_classes;
  vocab.overlap = 0.2;
  vocab.seed = 5;
  sensors::SyntheticGenerator gen(6);
  auto corpus = gen.GenerateVocabularyDataset(vocab, /*per_class=*/1,
                                              /*duration_s=*/2.0);
  auto features = model.pipeline().ProcessLabeled(corpus).value();
  Rng rng(7);
  for (const auto& [id, count] : features.ClassCounts()) {
    MAGNETO_CHECK(
        support.SetClass(id, features.FilterByClass(id), nullptr, &rng).ok());
  }
  MAGNETO_CHECK(model.RebuildPrototypes(support).ok());
  return {std::move(model), std::move(support)};
}

/// Full-probe configuration: the candidate pool covers every prototype, so
/// ANN-vs-exact parity is deterministic and any mismatch is an index
/// consistency bug (stale row, missing class), not an approximation.
AnnOptions FullProbeAnn() {
  AnnOptions options;
  options.min_index_size = 1;
  options.nlist = 8;
  options.nprobe = 8;
  return options;
}

/// Probe features from a stable slice of the same vocabulary (class i never
/// depends on num_classes) plus a held-out generator seed.
sensors::FeatureDataset ProbeFeatures(const EdgeModel& model) {
  sensors::LargeVocabularyOptions vocab;
  vocab.num_classes = 25;
  vocab.overlap = 0.2;
  vocab.seed = 5;
  sensors::SyntheticGenerator gen(9);
  auto corpus = gen.GenerateVocabularyDataset(vocab, 1, 1.0);
  return model.pipeline().ProcessLabeled(corpus).value();
}

std::vector<Prediction> PredictAll(const NcmClassifier& classifier,
                                   const Matrix& embeddings) {
  NcmClassifier::Scratch scratch;
  std::vector<Prediction> out;
  out.reserve(embeddings.rows());
  for (size_t i = 0; i < embeddings.rows(); ++i) {
    out.push_back(classifier
                      .Classify(embeddings.RowPtr(i), embeddings.cols(),
                                &scratch)
                      .value());
  }
  return out;
}

IncrementalOptions OneEpochOptions() {
  IncrementalOptions options;
  options.train.epochs = 1;
  options.train.batch_size = 32;
  options.train.learning_rate = 5e-4;
  options.train.distill_weight = 1.0;
  options.train.seed = 17;
  options.seed = 18;
  return options;
}

std::vector<sensors::Recording> GestureRecordings(uint64_t seed) {
  sensors::SyntheticGenerator gen(seed);
  return {gen.Generate(sensors::MakeGestureModel(seed), 25.0)};
}

TEST(AnnIncrementalStressTest, ParityAfterEverySequentialCommit) {
  VocabDeployment dep = DeployLargeVocabulary(200);
  ASSERT_TRUE(dep.model.EnableAnn(FullProbeAnn()).ok());
  ASSERT_TRUE(dep.model.classifier().ann_active());
  ASSERT_GE(dep.model.classifier().num_classes(), 200u);

  sensors::FeatureDataset probes = ProbeFeatures(dep.model);
  IncrementalLearner learner(OneEpochOptions());
  const char* names[] = {"Gesture A", "Gesture B", "Gesture C"};
  for (int u = 0; u < 3; ++u) {
    auto report = testing::Install(
        learner.LearnNewActivity(dep.model, dep.support, names[u],
                                 GestureRecordings(20 + u)),
        &dep.model, &dep.support);
    ASSERT_TRUE(report.ok()) << report.status();
    // The committed classifier kept its index through the staged rebuild.
    ASSERT_TRUE(dep.model.classifier().ann_active());
    EXPECT_TRUE(dep.model.classifier().HasClass(report.value().activity));

    // ANN vs exact over the same (just-updated) backbone and prototypes.
    Matrix embeddings = dep.model.Embed(probes.ToMatrix());
    NcmClassifier exact = dep.model.classifier();
    exact.DisableAnn();
    EXPECT_FALSE(exact.ann_active());
    auto ann_preds = PredictAll(dep.model.classifier(), embeddings);
    auto exact_preds = PredictAll(exact, embeddings);
    ASSERT_EQ(ann_preds.size(), exact_preds.size());
    for (size_t i = 0; i < ann_preds.size(); ++i) {
      EXPECT_EQ(ann_preds[i].activity, exact_preds[i].activity)
          << "update " << u << ", probe " << i;
      EXPECT_DOUBLE_EQ(ann_preds[i].distance, exact_preds[i].distance)
          << "update " << u << ", probe " << i;
    }
  }
}

TEST(AnnIncrementalStressTest, RollbackAtEveryStepKeepsIndexConsistent) {
  VocabDeployment dep = DeployLargeVocabulary(120);
  ASSERT_TRUE(dep.model.EnableAnn(FullProbeAnn()).ok());
  ASSERT_TRUE(dep.model.classifier().ann_active());

  sensors::FeatureDataset probes = ProbeFeatures(dep.model);
  Matrix embeddings = dep.model.Embed(probes.ToMatrix());
  const auto before = PredictAll(dep.model.classifier(), embeddings);

  for (UpdateStep step : {UpdateStep::kPreprocess, UpdateStep::kTrain,
                          UpdateStep::kSupportSet, UpdateStep::kPrototypes}) {
    IncrementalOptions options = OneEpochOptions();
    options.failure_hook = [step](UpdateStep s) {
      return s == step ? Status::Internal("injected") : Status::Ok();
    };
    IncrementalLearner learner(options);
    auto res = testing::Install(
        learner.LearnNewActivity(dep.model, dep.support, "Doomed Gesture",
                                 GestureRecordings(30)),
        &dep.model, &dep.support);
    EXPECT_FALSE(res.ok())
        << "step " << static_cast<int>(step) << " did not fail";
    // The live model is untouched: index still serving, predictions
    // byte-identical to before the attempt.
    ASSERT_TRUE(dep.model.classifier().ann_active());
    Matrix after_emb = dep.model.Embed(probes.ToMatrix());
    auto after = PredictAll(dep.model.classifier(), after_emb);
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(std::memcmp(&after[i], &before[i], sizeof(Prediction)), 0)
          << "step " << static_cast<int>(step) << ", probe " << i;
    }
  }

  // After all those aborted attempts a clean commit still goes through and
  // the rebuilt index serves the new class.
  IncrementalLearner learner(OneEpochOptions());
  auto report = testing::Install(
      learner.LearnNewActivity(dep.model, dep.support, "Doomed Gesture",
                               GestureRecordings(30)),
      &dep.model, &dep.support);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(dep.model.classifier().ann_active());
  EXPECT_TRUE(dep.model.classifier().HasClass(report.value().activity));
}

}  // namespace
}  // namespace magneto::core
