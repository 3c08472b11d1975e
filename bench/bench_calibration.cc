/// Experiment C7 (§3.3, final paragraph): "calibrating an activity to more
/// closely align with the user's behavior ... the data for the targeted
/// activity within the support set is replaced with newly acquired data."
///
/// Sweeps the user's deviation from the canonical activity signature
/// (`UserProfile` intensity) and reports the user's Walk recognition before
/// vs after calibration, plus retention of the untouched activities.

#include <cstdio>

#include "bench/bench_util.h"

namespace magneto::bench {
namespace {

double RecognitionRate(core::EdgeModel* model, const sensors::Recording& rec,
                       sensors::ActivityId expected) {
  auto preds = Unwrap(model->InferRecording(rec), "infer");
  if (preds.empty()) return 0.0;
  size_t hits = 0;
  for (const auto& p : preds) hits += (p.prediction.activity == expected);
  return static_cast<double>(hits) / preds.size();
}

void Run() {
  core::CloudInitializer cloud(BenchCloudConfig());
  auto base_bundle = Unwrap(
      cloud.Initialize(BenchCorpus(1),
                       sensors::ActivityRegistry::BaseActivities()),
      "cloud init");
  const std::string wire = base_bundle.SerializeToString();

  std::printf("== C7: calibration of Walk to a user's personal style ==\n");
  std::printf("%-10s %12s %12s %14s %12s\n", "intensity", "before", "after",
              "other acts", "gain");
  for (double intensity : {0.0, 0.3, 0.6, 0.9, 1.2}) {
    auto bundle = Unwrap(core::ModelBundle::FromString(wire), "clone");
    core::SupportSet support = std::move(bundle.support);
    core::EdgeModel model = std::move(bundle).ToEdgeModel();

    sensors::UserProfile user(/*seed=*/1000 + static_cast<uint64_t>(
                                  intensity * 100),
                              intensity);
    sensors::ActivityLibrary personal =
        user.Personalize(sensors::DefaultActivityLibrary());
    sensors::SyntheticGenerator phone(17);

    const double before = RecognitionRate(
        &model, phone.Generate(personal[sensors::kWalk], 12.0), sensors::kWalk);

    core::IncrementalOptions options;
    options.train.epochs = 12;
    options.train.learning_rate = 1e-3;
    options.train.distill_weight = 1.0;
    options.train.seed = 19;
    core::IncrementalLearner learner(options);
    core::UpdateOutcome calibrated = Unwrap(
        learner.Calibrate(model, support, sensors::kWalk,
                          {phone.Generate(personal[sensors::kWalk], 25.0)}),
        "calibrate");
    model = std::move(calibrated.model);
    support = std::move(calibrated.support);

    const double after = RecognitionRate(
        &model, phone.Generate(personal[sensors::kWalk], 12.0), sensors::kWalk);

    // Retention on the canonical versions of the untouched activities.
    sensors::ActivityLibrary canonical = sensors::DefaultActivityLibrary();
    double others = 0.0;
    const sensors::ActivityId kOthers[] = {sensors::kDrive, sensors::kEScooter,
                                           sensors::kRun, sensors::kStill};
    for (sensors::ActivityId id : kOthers) {
      others += RecognitionRate(&model, phone.Generate(canonical[id], 6.0), id);
    }
    others /= 4.0;

    std::printf("%-10.1f %11.1f%% %11.1f%% %13.1f%% %+11.1f%%\n", intensity,
                before * 100.0, after * 100.0, others * 100.0,
                (after - before) * 100.0);
  }
  std::printf("\n(intensity 0 = canonical user: calibration is a no-op win;\n"
              " high intensity = strongly personal gait: calibration "
              "recovers recognition the population model lost)\n");
}

}  // namespace
}  // namespace magneto::bench

int main() {
  magneto::bench::Run();
  return 0;
}
