/// Ablation A1: support-set selection strategy and capacity.
///
/// The support set is MAGNETO's memory-accuracy dial (§3.2 item 3): its
/// exemplars define the NCM prototypes and the retraining set. This bench
/// sweeps capacity x selection strategy and reports (i) base-activity
/// accuracy from the resulting prototypes and (ii) old-class retention after
/// an incremental update that retrains on those exemplars.

#include <cstdio>

#include "bench/bench_util.h"

namespace magneto::bench {
namespace {

const char* StrategyName(core::SelectionStrategy s) {
  switch (s) {
    case core::SelectionStrategy::kRandom:
      return "random";
    case core::SelectionStrategy::kHerding:
      return "herding";
    case core::SelectionStrategy::kReservoir:
      return "reservoir";
  }
  return "?";
}

void Run() {
  // Pretrain once with a generous support pool, then rebuild smaller support
  // sets from the full training features for each configuration.
  core::CloudConfig config = BenchCloudConfig();
  core::CloudInitializer cloud(config);
  auto bundle = Unwrap(
      cloud.Initialize(HeterogeneousCorpus(1, 8, 1, 8.0, 0.7),
                       sensors::ActivityRegistry::BaseActivities()),
      "cloud init");
  core::EdgeModel model = std::move(bundle).ToEdgeModel();

  auto train_features = Unwrap(
      model.pipeline().ProcessLabeled(HeterogeneousCorpus(1, 8, 1, 8.0, 0.7)),
      "train features");
  auto eval = Unwrap(model.pipeline().ProcessLabeled(HeterogeneousCorpus(999, 6, 1, 8.0, 0.7)),
                     "eval features");

  // An untrained backbone of the same shape: prototype estimation in a
  // *poor* embedding space, where exemplar count and selection start to
  // matter. The contrast is the point of the table: a well-trained
  // contrastive space collapses each class so tightly that even one exemplar
  // reconstructs the prototype, so the support capacity is really purchased
  // for retraining stability (A1b), not for prototyping.
  Rng untrained_rng(55);
  nn::Sequential untrained_net = nn::BuildMlp(
      preprocess::kNumFeatures, config.backbone_dims, &untrained_rng);
  core::EdgeModel untrained(model.pipeline(), std::move(untrained_net),
                            core::NcmClassifier{}, model.registry());

  std::printf("== A1: support capacity x selection strategy ==\n");
  std::printf("%-10s %-11s %14s %16s %14s\n", "capacity", "strategy",
              "acc (trained)", "acc (untrained)", "memory (KiB)");
  for (size_t capacity : {1u, 2u, 5u, 15u, 50u}) {
    for (core::SelectionStrategy strategy :
         {core::SelectionStrategy::kRandom,
          core::SelectionStrategy::kHerding}) {
      core::SupportSet support(capacity, strategy);
      core::SupportSet untrained_support(capacity, strategy);
      Rng rng(33);
      for (sensors::ActivityId id : train_features.Classes()) {
        CheckOk(support.SetClass(id, train_features.FilterByClass(id), &model,
                                 &rng),
                "set class");
        CheckOk(untrained_support.SetClass(
                    id, train_features.FilterByClass(id), &untrained, &rng),
                "set class untrained");
      }
      CheckOk(model.RebuildPrototypes(support), "rebuild");
      CheckOk(untrained.RebuildPrototypes(untrained_support),
              "rebuild untrained");
      std::printf("%-10zu %-11s %13.1f%% %15.1f%% %14.1f\n", capacity,
                  StrategyName(strategy), Accuracy(&model, eval) * 100.0,
                  Accuracy(&untrained, eval) * 100.0,
                  support.MemoryBytes() / 1024.0);
    }
  }

  // Retention after an incremental update, as a function of what the update
  // had to retrain on.
  std::printf("\n== A1b: retention after learning 'Gesture Hi', by support "
              "capacity (herding, MSE lambda=1) ==\n");
  std::printf("%-10s %8s %8s %8s\n", "capacity", "new", "old", "forget");
  const std::string wire = [&] {
    // Re-run cloud init to get a fresh bundle to clone per row.
    core::CloudInitializer c(BenchCloudConfig());
    return Unwrap(c.Initialize(HeterogeneousCorpus(1, 8, 1, 8.0, 0.7),
                               sensors::ActivityRegistry::BaseActivities()),
                  "cloud init 2")
        .SerializeToString();
  }();
  sensors::SignalModel gesture = sensors::MakeGestureModel(99);
  sensors::SyntheticGenerator gen(3);
  const sensors::Recording capture = gen.Generate(gesture, 25.0);

  for (size_t capacity : {1u, 5u, 15u, 50u}) {
    auto row_bundle = Unwrap(core::ModelBundle::FromString(wire), "clone");
    core::EdgeModel row_model = std::move(row_bundle).ToEdgeModel();
    // Build the row's support set at the requested capacity.
    core::SupportSet support(capacity, core::SelectionStrategy::kHerding);
    Rng rng(44);
    for (sensors::ActivityId id : train_features.Classes()) {
      CheckOk(support.SetClass(id, train_features.FilterByClass(id),
                               &row_model, &rng),
              "set class");
    }
    CheckOk(row_model.RebuildPrototypes(support), "rebuild");

    learn::ConfusionMatrix before;
    for (const auto& [truth, pred] :
         Unwrap(row_model.Predict(eval), "predict")) {
      before.Add(truth, pred);
    }

    core::IncrementalOptions options;
    options.train.epochs = 12;
    options.train.learning_rate = 1e-3;
    options.train.distill_weight = 1.0;
    options.train.seed = 23;
    core::IncrementalLearner learner(options);
    core::UpdateOutcome outcome = Unwrap(
        learner.LearnNewActivity(row_model, support, "Gesture Hi", {capture}),
        "update");
    row_model = std::move(outcome.model);
    const core::UpdateReport& report = outcome.report;

    learn::ConfusionMatrix after;
    for (const auto& [truth, pred] :
         Unwrap(row_model.Predict(eval), "predict")) {
      after.Add(truth, pred);
    }
    for (int i = 0; i < 3; ++i) {
      for (const auto& p :
           Unwrap(row_model.InferRecording(gen.Generate(gesture, 8.0)),
                  "infer")) {
        after.Add(report.activity, p.prediction.activity);
      }
    }
    auto f = learn::ComputeForgetting(before, after, report.activity);
    std::printf("%-10zu %7.1f%% %7.1f%% %7.1f%%\n", capacity,
                f.new_class_accuracy * 100.0,
                f.old_class_accuracy_after * 100.0,
                f.mean_forgetting * 100.0);
  }
}

}  // namespace
}  // namespace magneto::bench

int main() {
  magneto::bench::Run();
  return 0;
}
