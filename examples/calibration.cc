/// Personalization via calibration (§3.3, final paragraph): a user whose
/// walking style deviates strongly from the population the cloud model was
/// trained on re-records the activity; MAGNETO replaces the activity's
/// support data and retrains on-device, aligning the model to that user.
///
/// The example prints the user's Walk accuracy before and after calibration,
/// and verifies the other activities were not disturbed.
///
/// Run: ./build/examples/calibration

#include <cstdio>

#include "example_util.h"

namespace {

using namespace magneto;

/// Fraction of windows of `rec` classified as `expected`.
double RecognitionRate(core::EdgeModel* model, const sensors::Recording& rec,
                       sensors::ActivityId expected) {
  auto preds = model->InferRecording(rec);
  examples::CheckOk(preds.status(), "inference");
  if (preds.value().empty()) return 0.0;
  size_t hits = 0;
  for (const auto& p : preds.value()) {
    if (p.prediction.activity == expected) ++hits;
  }
  return static_cast<double>(hits) / preds.value().size();
}

}  // namespace

int main() {
  std::printf("== Cloud initialization on canonical (population) data ==\n");
  core::CloudInitializer cloud(examples::DemoCloudConfig());
  auto bundle = cloud.Initialize(examples::DemoCorpus(31),
                                 sensors::ActivityRegistry::BaseActivities());
  examples::CheckOk(bundle.status(), "cloud initialization");

  core::SupportSet support = std::move(bundle.value().support);
  core::EdgeModel model = std::move(bundle).value().ToEdgeModel();

  // A user with a strongly personal gait (tempo, amplitude, phase shifts).
  sensors::UserProfile user(/*seed=*/99, /*intensity=*/0.9);
  sensors::ActivityLibrary personal =
      user.Personalize(sensors::DefaultActivityLibrary());
  sensors::SyntheticGenerator phone(/*seed=*/55);

  std::printf("\n== Before calibration ==\n");
  sensors::Recording personal_walk = phone.Generate(personal[sensors::kWalk],
                                                    10.0);
  const double walk_before =
      RecognitionRate(&model, personal_walk, sensors::kWalk);
  std::printf("user's Walk recognised: %.0f%% of windows\n",
              walk_before * 100.0);

  std::printf("\n== Calibrating Walk with 25 s of the user's own data ==\n");
  core::IncrementalOptions options;
  options.train.epochs = 12;
  options.train.learning_rate = 1e-3;
  options.train.distill_weight = 1.0;
  options.train.seed = 61;
  core::IncrementalLearner learner(options);
  auto outcome = learner.Calibrate(
      model, support, sensors::kWalk,
      {phone.Generate(personal[sensors::kWalk], 25.0)});
  examples::CheckOk(outcome.status(), "calibration");
  std::printf("retrained on %zu fresh windows; Walk's support data replaced\n",
              outcome->report.new_windows);
  model = std::move(outcome->model);

  std::printf("\n== After calibration ==\n");
  sensors::Recording fresh_walk =
      phone.Generate(personal[sensors::kWalk], 10.0);
  const double walk_after =
      RecognitionRate(&model, fresh_walk, sensors::kWalk);
  std::printf("user's Walk recognised: %.0f%% of windows (was %.0f%%)\n",
              walk_after * 100.0, walk_before * 100.0);

  // The calibration must not break the canonical activities.
  std::printf("\nretention of the other activities (canonical style):\n");
  sensors::ActivityLibrary canonical = sensors::DefaultActivityLibrary();
  for (sensors::ActivityId id :
       {sensors::kDrive, sensors::kEScooter, sensors::kRun, sensors::kStill}) {
    const double rate =
        RecognitionRate(&model, phone.Generate(canonical[id], 6.0), id);
    std::printf("  %-10s %.0f%%\n",
                model.registry().NameOf(id).ValueOrDie().c_str(),
                rate * 100.0);
  }
  return 0;
}
