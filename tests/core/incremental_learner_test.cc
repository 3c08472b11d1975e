#include "core/incremental_learner.h"

#include <gtest/gtest.h>

#include "compress/compress.h"
#include "learn/metrics.h"
#include "obs/metrics.h"
#include "sensors/user_profile.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

IncrementalOptions FastUpdateOptions() {
  IncrementalOptions options;
  options.train.epochs = 6;
  options.train.batch_size = 32;
  options.train.learning_rate = 5e-4;
  options.train.distill_weight = 1.0;
  options.train.seed = 17;
  options.seed = 18;
  return options;
}

struct Deployment {
  EdgeModel model;
  SupportSet support;
};

Deployment Deploy(uint64_t seed) {
  ModelBundle bundle = testing::SmallPretrainedBundle(seed);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  return {std::move(model), std::move(support)};
}

std::vector<sensors::Recording> GestureRecordings(uint64_t seed,
                                                  double seconds = 25.0) {
  sensors::SyntheticGenerator gen(seed);
  return {gen.Generate(sensors::MakeGestureModel(seed), seconds)};
}

/// Learns `name` and installs the outcome into `dep`.
Result<UpdateReport> Learn(const IncrementalLearner& learner, Deployment* dep,
                           const std::string& name,
                           const std::vector<sensors::Recording>& recordings) {
  return testing::Install(
      learner.LearnNewActivity(dep->model, dep->support, name, recordings),
      &dep->model, &dep->support);
}

/// Full serialized deployment state — backbone weights, prototypes,
/// registry, and support set.
std::string StateBytes(const EdgeModel& model, const SupportSet& support) {
  return ModelBundle::FromEdgeModel(model.Clone(), support)
      .SerializeToString();
}

uint64_t CounterValue(const char* name) {
  const auto snap = obs::Registry::Global().TakeSnapshot();
  const auto* counter = snap.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

/// A deployment loaded from a wire-v3 (int8) bundle and serving through
/// the ANN index: the serving config every rebuild path must carry across.
Deployment DeployInt8WithAnn(uint64_t seed) {
  ModelBundle cloud = testing::SmallPretrainedBundle(seed);
  cloud.wire_version = kBundleWireV3;
  MAGNETO_CHECK(cloud.classifier.QuantizePrototypes().ok());
  ModelBundle bundle =
      ModelBundle::FromString(cloud.SerializeToString()).value();
  MAGNETO_CHECK(bundle.classifier.quantized());
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  AnnOptions ann;
  ann.min_index_size = 1;
  ann.nlist = 2;
  ann.nprobe = 1;
  MAGNETO_CHECK(model.EnableAnn(ann).ok());
  return {std::move(model), std::move(support)};
}

void ExpectInt8WithAnn(const NcmClassifier& classifier) {
  EXPECT_TRUE(classifier.quantized());
  EXPECT_TRUE(classifier.ann_enabled());
  EXPECT_TRUE(classifier.ann_active());
  EXPECT_EQ(classifier.ann_options().nlist, 2u);
  EXPECT_EQ(classifier.ann_options().nprobe, 1u);
}

TEST(IncrementalLearnerTest, LearnNewActivityKeepsInt8AndAnn) {
  // The learner rebuilds prototypes on its staged copy; an int8
  // deployment must come out of it still scanning int8 codes.
  Deployment dep = DeployInt8WithAnn(303);
  IncrementalLearner learner(FastUpdateOptions());
  auto report = Learn(learner, &dep, "Gesture Hi", GestureRecordings(1));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(dep.model.classifier().HasClass(report.value().activity));
  ExpectInt8WithAnn(dep.model.classifier());
}

TEST(IncrementalLearnerTest, RebuildPrototypesKeepsInt8AndAnn) {
  Deployment dep = DeployInt8WithAnn(304);
  const size_t classes = dep.model.classifier().num_classes();
  ASSERT_TRUE(dep.model.RebuildPrototypes(dep.support).ok());
  EXPECT_EQ(dep.model.classifier().num_classes(), classes);
  ExpectInt8WithAnn(dep.model.classifier());
}

TEST(IncrementalLearnerTest, LearnNewActivityRegistersAndClassifies) {
  Deployment dep = Deploy(301);
  IncrementalLearner learner(FastUpdateOptions());
  auto report = Learn(learner, &dep, "Gesture Hi", GestureRecordings(1));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().new_windows, 25u);
  EXPECT_TRUE(dep.model.registry().Contains(report.value().activity));
  EXPECT_EQ(dep.model.registry().NameOf(report.value().activity).value(),
            "Gesture Hi");
  EXPECT_TRUE(dep.support.HasClass(report.value().activity));
  EXPECT_TRUE(dep.model.classifier().HasClass(report.value().activity));

  // The model now recognises fresh gesture data.
  sensors::SyntheticGenerator gen(2);
  sensors::Recording fresh =
      gen.Generate(sensors::MakeGestureModel(1), 8.0);
  auto preds = dep.model.InferRecording(fresh);
  ASSERT_TRUE(preds.ok());
  size_t hits = 0;
  for (const auto& p : preds.value()) {
    if (p.prediction.activity == report.value().activity) ++hits;
  }
  EXPECT_GT(hits, preds.value().size() / 2)
      << "gesture recognised in " << hits << "/" << preds.value().size();
}

TEST(IncrementalLearnerTest, OldClassesSurviveTheUpdate) {
  Deployment dep = Deploy(302);
  // Baseline accuracy on held-out base-activity data.
  auto eval = dep.model.pipeline()
                  .ProcessLabeled(testing::SmallCorpus(999, 2, 4.0))
                  .value();
  auto measure = [&](EdgeModel* model) {
    learn::ConfusionMatrix cm;
    auto pairs = model->Predict(eval);
    EXPECT_TRUE(pairs.ok());
    for (const auto& [truth, pred] : pairs.value()) {
      cm.Add(truth, pred);
    }
    return cm.Accuracy();
  };
  const double before = measure(&dep.model);

  IncrementalLearner learner(FastUpdateOptions());
  ASSERT_TRUE(Learn(learner, &dep, "Gesture Hi", GestureRecordings(3)).ok());
  const double after = measure(&dep.model);
  // The distillation term keeps old-class accuracy within a modest band.
  EXPECT_GT(after, before - 0.15)
      << "catastrophic forgetting: " << before << " -> " << after;
}

TEST(IncrementalLearnerTest, DuplicateNameRejected) {
  Deployment dep = Deploy(303);
  IncrementalLearner learner(FastUpdateOptions());
  auto res = Learn(learner, &dep, "Walk", GestureRecordings(4));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kAlreadyExists);
}

TEST(IncrementalLearnerTest, TooShortRecordingFailsAndRollsBack) {
  Deployment dep = Deploy(304);
  IncrementalLearner learner(FastUpdateOptions());
  sensors::SyntheticGenerator gen(5);
  std::vector<sensors::Recording> tiny{
      gen.Generate(sensors::MakeGestureModel(5), 0.5)};  // < one window
  auto res = Learn(learner, &dep, "Gesture Hi", tiny);
  EXPECT_FALSE(res.ok());
  // The failed name must be free for a retry with a longer capture.
  EXPECT_FALSE(dep.model.registry().IdOf("Gesture Hi").ok());
  auto retry = Learn(learner, &dep, "Gesture Hi", GestureRecordings(6));
  EXPECT_TRUE(retry.ok()) << retry.status();
}

TEST(IncrementalLearnerTest, CalibrationReplacesSupportData) {
  Deployment dep = Deploy(306);
  IncrementalLearner learner(FastUpdateOptions());

  // The user's personal walking style, strongly shifted from canonical.
  sensors::UserProfile user(77, 0.8);
  sensors::SignalModel personal_walk =
      user.Personalize(sensors::DefaultActivityLibrary()[sensors::kWalk]);
  sensors::SyntheticGenerator gen(8);
  std::vector<sensors::Recording> capture{gen.Generate(personal_walk, 25.0)};

  const size_t size_before = dep.support.ClassSize(sensors::kWalk);
  auto report = testing::Install(
      learner.Calibrate(dep.model, dep.support, sensors::kWalk, capture),
      &dep.model, &dep.support);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().activity, sensors::kWalk);
  // Support class replaced (same capacity cap).
  EXPECT_LE(dep.support.ClassSize(sensors::kWalk),
            dep.support.capacity_per_class());
  EXPECT_GT(dep.support.ClassSize(sensors::kWalk), 0u);
  (void)size_before;

  // Calibrated model recognises the personal style.
  sensors::Recording fresh = gen.Generate(personal_walk, 8.0);
  auto preds = dep.model.InferRecording(fresh);
  ASSERT_TRUE(preds.ok());
  size_t hits = 0;
  for (const auto& p : preds.value()) {
    if (p.prediction.activity == sensors::kWalk) ++hits;
  }
  EXPECT_GT(hits, preds.value().size() / 2);
}

TEST(IncrementalLearnerTest, CalibrateUnknownActivityFails) {
  Deployment dep = Deploy(307);
  IncrementalLearner learner(FastUpdateOptions());
  auto res = learner.Calibrate(dep.model, dep.support, 999,
                               GestureRecordings(9));
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

TEST(IncrementalLearnerTest, SequentialUpdatesAddMultipleActivities) {
  // "the learning process can be repeated to accommodate the addition of
  // multiple activities" (§3.3).
  Deployment dep = Deploy(308);
  IncrementalLearner learner(FastUpdateOptions());
  auto r1 = Learn(learner, &dep, "Gesture Hi", GestureRecordings(10));
  ASSERT_TRUE(r1.ok());
  auto r2 = Learn(learner, &dep, "Gesture Bye", GestureRecordings(11));
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1.value().activity, r2.value().activity);
  EXPECT_EQ(dep.model.registry().size(), 7u);
  EXPECT_EQ(dep.support.NumClasses(), 7u);
  EXPECT_EQ(dep.model.classifier().num_classes(), 7u);
}

TEST(IncrementalLearnerTest, ReportAccountsSupportBytes) {
  Deployment dep = Deploy(309);
  IncrementalLearner learner(FastUpdateOptions());
  auto report = Learn(learner, &dep, "Gesture Hi", GestureRecordings(12));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().support_bytes, dep.support.MemoryBytes());
  EXPECT_GT(report.value().train.epochs.size(), 0u);
}

TEST(IncrementalLearnerTest, CommitCountsAndReportsSupportBytes) {
  Deployment dep = Deploy(310);
  const uint64_t commits = CounterValue("learner.commits");
  const uint64_t rollbacks = CounterValue("learner.rollbacks");
  IncrementalLearner learner(FastUpdateOptions());
  auto outcome = learner.LearnNewActivity(dep.model, dep.support,
                                          "Gesture Hi", GestureRecordings(5));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(CounterValue("learner.commits"), commits + 1);
  EXPECT_EQ(CounterValue("learner.rollbacks"), rollbacks);
  EXPECT_EQ(outcome->report.support_bytes, outcome->support.MemoryBytes());
  // The staged-bytes gauge only reads nonzero while an update is staged.
  const auto snap = obs::Registry::Global().TakeSnapshot();
  ASSERT_NE(snap.FindGauge("learner.staged_bytes"), nullptr);
  EXPECT_EQ(snap.FindGauge("learner.staged_bytes")->value, 0.0);
}

TEST(IncrementalLearnerTest,
     DuplicateNameCountsRollbackAndLeavesBaseUntouched) {
  Deployment dep = Deploy(311);
  const std::string before = StateBytes(dep.model, dep.support);
  const uint64_t rollbacks = CounterValue("learner.rollbacks");
  const uint64_t commits = CounterValue("learner.commits");
  IncrementalLearner learner(FastUpdateOptions());
  auto res = learner.LearnNewActivity(dep.model, dep.support, "Walk",
                                      GestureRecordings(6));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(StateBytes(dep.model, dep.support), before);
  EXPECT_EQ(CounterValue("learner.rollbacks"), rollbacks + 1);
  EXPECT_EQ(CounterValue("learner.commits"), commits);
}

TEST(IncrementalLearnerTest, BaseStaysByteIdenticalAcrossUpdates) {
  // The base is read-only by type; this pins that no path (success, a
  // failure at any step, a calibration) reaches it through a shared buffer.
  Deployment dep = Deploy(312);
  const std::string before = StateBytes(dep.model, dep.support);
  IncrementalLearner learner(FastUpdateOptions());
  auto learned = learner.LearnNewActivity(dep.model, dep.support,
                                          "Gesture Hi", GestureRecordings(7));
  ASSERT_TRUE(learned.ok()) << learned.status();
  EXPECT_NE(StateBytes(learned->model, learned->support), before);
  EXPECT_EQ(StateBytes(dep.model, dep.support), before);
  for (UpdateStep step : {UpdateStep::kPreprocess, UpdateStep::kTrain,
                          UpdateStep::kSupportSet, UpdateStep::kPrototypes}) {
    IncrementalOptions options = FastUpdateOptions();
    options.failure_hook = [step](UpdateStep s) {
      return s == step ? Status::Internal("injected") : Status::Ok();
    };
    auto failed = IncrementalLearner(options).Calibrate(
        dep.model, dep.support, sensors::kWalk, GestureRecordings(8));
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_EQ(StateBytes(dep.model, dep.support), before)
        << "step " << static_cast<int>(step);
  }
}

TEST(IncrementalLearnerTest, OutcomeKeepsBaseEmbeddingDim) {
  Deployment dep = Deploy(313);
  IncrementalLearner learner(FastUpdateOptions());
  auto outcome = learner.LearnNewActivity(dep.model, dep.support,
                                          "Gesture Hi", GestureRecordings(9));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->model.embedding_dim(), dep.model.embedding_dim());
  EXPECT_EQ(outcome->model.classifier().embedding_dim(),
            dep.model.embedding_dim());
}

TEST(IncrementalLearnerTest, Int8BackboneRefusedBeforeStaging) {
  // An int8-compressed backbone is inference-only: an update must refuse
  // it up front instead of reaching the int8 layer's backward pass.
  ModelBundle bundle = testing::SmallPretrainedBundle(314);
  bundle.backbone = compress::QuantizeBackbone(bundle.backbone).value();
  SupportSet support = std::move(bundle.support);
  Deployment dep{std::move(bundle).ToEdgeModel(), std::move(support)};
  ASSERT_TRUE(dep.model.RebuildPrototypes(dep.support).ok());
  const uint64_t rollbacks = CounterValue("learner.rollbacks");
  IncrementalLearner learner(FastUpdateOptions());
  EXPECT_EQ(learner
                .LearnNewActivity(dep.model, dep.support, "Gesture Hi",
                                  GestureRecordings(10))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(learner
                .Calibrate(dep.model, dep.support, sensors::kWalk,
                           GestureRecordings(10))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Refused before staging: nothing was staged, so nothing rolled back.
  EXPECT_EQ(CounterValue("learner.rollbacks"), rollbacks);
}

}  // namespace
}  // namespace magneto::core
