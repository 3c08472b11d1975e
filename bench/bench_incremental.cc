/// Experiments C5 + F3 (§3.3, §4.2.2): on-device incremental learning of a
/// new activity and the anti-forgetting mechanism decomposition.
///
/// The paper's update recipe has two ingredients: (i) rehearsal — retraining
/// on the support set mixed with the fresh windows — and (ii) embedding
/// distillation toward the frozen pre-update model. The first table ablates
/// the 2x2 grid, with naive fine-tuning (neither ingredient) as the
/// catastrophic-forgetting baseline the paper warns about.
///
/// Columns:
///   new     — recall of the new activity on fresh data
///   old     — mean recall of the five base activities after the update
///   forget  — mean per-class recall drop on the base activities
///
/// Also: the few-shot sweep (F3) and sequential addition of three custom
/// gestures (the "learning process can be repeated" claim).

#include <cstdio>

#include "bench/bench_util.h"

namespace magneto::bench {
namespace {

constexpr double kIntensity = 0.7;

struct BenchSetup {
  std::string wire;                       // pretrained bundle bytes
  sensors::FeatureDataset old_eval;       // held-out base-activity windows
};

BenchSetup Pretrain() {
  core::CloudConfig config = BenchCloudConfig();
  config.train.epochs = 20;
  core::CloudInitializer cloud(config);
  auto bundle = Unwrap(
      cloud.Initialize(HeterogeneousCorpus(1, 8, 1, 8.0, kIntensity),
                       sensors::ActivityRegistry::BaseActivities()),
      "cloud init");
  BenchSetup setup;
  setup.wire = bundle.SerializeToString();
  setup.old_eval = Unwrap(bundle.pipeline.ProcessLabeled(
                              HeterogeneousCorpus(999, 6, 1, 8.0, kIntensity)),
                          "old eval");
  return setup;
}

struct UpdateOutcome {
  learn::ForgettingReport forgetting;
};

UpdateOutcome RunUpdate(const BenchSetup& setup, bool rehearse, double lambda,
                        double ewc_weight, learn::DistillationKind kind,
                        const std::vector<sensors::Recording>& captures,
                        const std::vector<sensors::SignalModel>& eval_models,
                        const std::vector<std::string>& names) {
  auto bundle = Unwrap(core::ModelBundle::FromString(setup.wire), "clone");
  core::SupportSet support = std::move(bundle.support);
  core::EdgeModel model = std::move(bundle).ToEdgeModel();

  learn::ConfusionMatrix before;
  for (const auto& [truth, pred] :
       Unwrap(model.Predict(setup.old_eval), "predict")) {
    before.Add(truth, pred);
  }

  core::IncrementalOptions options;
  options.train.epochs = 12;
  options.train.learning_rate = 1e-3;
  options.train.distill_weight = lambda;
  options.train.distillation = kind;
  options.train.seed = 13;
  options.rehearse_support = rehearse;
  options.ewc_weight = ewc_weight;
  core::IncrementalLearner learner(options);

  sensors::ActivityId last_id = -1;
  for (size_t i = 0; i < captures.size(); ++i) {
    core::UpdateOutcome outcome = Unwrap(
        learner.LearnNewActivity(model, support, names[i], {captures[i]}),
        "update");
    model = std::move(outcome.model);
    support = std::move(outcome.support);
    last_id = outcome.report.activity;
  }

  learn::ConfusionMatrix after;
  for (const auto& [truth, pred] :
       Unwrap(model.Predict(setup.old_eval), "predict")) {
    after.Add(truth, pred);
  }
  // Evaluate every added gesture on fresh captures (attributed to the last
  // class for the single-gesture tables; summed recall otherwise).
  sensors::SyntheticGenerator eval_gen(7);
  for (size_t i = 0; i < eval_models.size(); ++i) {
    const sensors::ActivityId id =
        Unwrap(model.registry().IdOf(names[i]), "id");
    for (int rep = 0; rep < 3; ++rep) {
      sensors::Recording rec = eval_gen.Generate(eval_models[i], 8.0);
      for (const auto& p : Unwrap(model.InferRecording(rec), "infer")) {
        after.Add(id, p.prediction.activity);
      }
    }
  }
  UpdateOutcome outcome;
  outcome.forgetting = learn::ComputeForgetting(before, after, last_id);
  return outcome;
}

void Run() {
  BenchSetup setup = Pretrain();
  sensors::SignalModel gesture = sensors::MakeGestureModel(4242);
  sensors::SyntheticGenerator capture_gen(11);
  const sensors::Recording capture = capture_gen.Generate(gesture, 25.0);

  std::printf("== C5: anti-forgetting mechanism decomposition "
              "(learning 'Gesture Hi', 25 s) ==\n");
  std::printf("%-40s %8s %8s %8s\n", "update recipe", "new", "old", "forget");
  const struct {
    const char* label;
    bool rehearse;
    double lambda;
    double ewc;
    learn::DistillationKind kind;
  } kRows[] = {
      {"naive fine-tune (no rehearsal, no KD)", false, 0.0, 0.0,
       learn::DistillationKind::kMse},
      {"distillation only (LwF-style)", false, 1.0, 0.0,
       learn::DistillationKind::kMse},
      {"EWC only (Kirkpatrick et al.)", false, 0.0, 50.0,
       learn::DistillationKind::kMse},
      {"rehearsal only", true, 0.0, 0.0, learn::DistillationKind::kMse},
      {"rehearsal + EWC", true, 0.0, 50.0, learn::DistillationKind::kMse},
      {"rehearsal + MSE distillation (paper)", true, 1.0, 0.0,
       learn::DistillationKind::kMse},
      {"rehearsal + cosine distillation", true, 1.0, 0.0,
       learn::DistillationKind::kCosine},
      {"rehearsal + strong MSE (lambda=4)", true, 4.0, 0.0,
       learn::DistillationKind::kMse},
  };
  for (const auto& row : kRows) {
    auto outcome = RunUpdate(setup, row.rehearse, row.lambda, row.ewc,
                             row.kind, {capture}, {gesture}, {"Gesture Hi"});
    std::printf("%-40s %7.1f%% %7.1f%% %7.1f%%\n", row.label,
                outcome.forgetting.new_class_accuracy * 100.0,
                outcome.forgetting.old_class_accuracy_after * 100.0,
                outcome.forgetting.mean_forgetting * 100.0);
  }

  std::printf("\n== F3: few-shot sweep (recording length, paper recipe) ==\n");
  std::printf("%-10s %8s %8s %8s\n", "seconds", "new", "old", "forget");
  for (double seconds : {5.0, 10.0, 20.0, 40.0}) {
    const sensors::Recording rec = capture_gen.Generate(gesture, seconds);
    auto outcome =
        RunUpdate(setup, true, 1.0, 0.0, learn::DistillationKind::kMse, {rec},
                  {gesture}, {"Gesture Hi"});
    std::printf("%-10.0f %7.1f%% %7.1f%% %7.1f%%\n", seconds,
                outcome.forgetting.new_class_accuracy * 100.0,
                outcome.forgetting.old_class_accuracy_after * 100.0,
                outcome.forgetting.mean_forgetting * 100.0);
  }

  std::printf("\n== sequential additions: three custom gestures, one after "
              "another ==\n");
  std::printf("%-28s %8s %8s %8s\n", "recipe after 3 updates", "new(last)",
              "old", "forget");
  std::vector<sensors::SignalModel> gestures = {
      sensors::MakeGestureModel(1001), sensors::MakeGestureModel(2002),
      sensors::MakeGestureModel(3003)};
  std::vector<sensors::Recording> captures;
  for (const auto& g : gestures) {
    captures.push_back(capture_gen.Generate(g, 25.0));
  }
  const std::vector<std::string> names = {"Gesture A", "Gesture B",
                                          "Gesture C"};
  for (bool rehearse : {false, true}) {
    auto outcome =
        RunUpdate(setup, rehearse, rehearse ? 1.0 : 0.0, 0.0,
                  learn::DistillationKind::kMse, captures, gestures, names);
    std::printf("%-28s %7.1f%% %7.1f%% %7.1f%%\n",
                rehearse ? "paper (rehearsal + KD)" : "naive fine-tune",
                outcome.forgetting.new_class_accuracy * 100.0,
                outcome.forgetting.old_class_accuracy_after * 100.0,
                outcome.forgetting.mean_forgetting * 100.0);
  }
}

}  // namespace
}  // namespace magneto::bench

int main() {
  magneto::bench::Run();
  return 0;
}
