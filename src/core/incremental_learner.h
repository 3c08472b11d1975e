#ifndef MAGNETO_CORE_INCREMENTAL_LEARNER_H_
#define MAGNETO_CORE_INCREMENTAL_LEARNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/edge_model.h"
#include "core/support_set.h"
#include "learn/siamese_trainer.h"
#include "sensors/recording.h"

namespace magneto::core {

/// The steps of one incremental update (§3.3), in execution order. Used by
/// the failure-injection hook.
enum class UpdateStep : uint8_t {
  kPreprocess = 0,  ///< (1) featurize the capture with the frozen pipeline
  kTrain = 1,       ///< (2)+(3) distillation teacher + joint retraining
  kSupportSet = 2,  ///< (4) fold/replace exemplars in the support set
  kPrototypes = 3,  ///< (5) rebuild every NCM prototype
};

/// Hyperparameters of an on-device update.
struct IncrementalOptions {
  /// Edge retraining config. `distill_weight` > 0 activates the paper's
  /// anti-forgetting term; set to 0 to reproduce the catastrophic-forgetting
  /// baseline (ablated in bench_incremental).
  learn::TrainOptions train = [] {
    learn::TrainOptions t;
    t.epochs = 15;
    t.batch_size = 32;
    t.learning_rate = 5e-4;
    t.distill_weight = 1.0;
    return t;
  }();

  /// Weight of the EWC penalty against the pre-update parameters (0 =
  /// disabled). Ablated in bench_incremental as the regularisation-based
  /// alternative to the paper's rehearsal + distillation.
  double ewc_weight = 0.0;

  /// If true (the paper's recipe, §3.3 step 3), the retraining set is the
  /// support set plus the fresh windows. If false, training sees only the
  /// fresh windows — naive fine-tuning, the catastrophic-forgetting baseline
  /// ablated in bench_incremental.
  bool rehearse_support = true;

  uint64_t seed = 99;

  /// Test-only failure injection: invoked after each update step has run
  /// against the *staged* copy; returning an error makes the step fail as
  /// if the step itself had errored. Production leaves this unset. Used to
  /// prove the all-or-nothing guarantee at every boundary.
  std::function<Status(UpdateStep)> failure_hook;
};

/// Outcome of one on-device update.
struct UpdateReport {
  sensors::ActivityId activity = -1;
  size_t new_windows = 0;       ///< windows extracted from the recordings
  learn::TrainReport train;
  size_t support_bytes = 0;     ///< support-set payload after the update
};

/// The product of one successful update: the complete next deployment.
/// Installing it is the owner's move (`EdgeRuntime`, `EdgeFleet`);
/// dropping it is the rollback.
struct UpdateOutcome {
  EdgeModel model;
  SupportSet support;
  UpdateReport report;
};

/// Definition 2 of the paper, executed entirely on the edge device:
/// enriches the model with the user's personal data, either by learning a
/// brand-new activity or by re-calibrating an existing one, without
/// forgetting what the cloud model knew.
///
/// The update recipe (§3.3):
///   1. preprocess the user's fresh recording into feature windows,
///   2. keep the current backbone frozen as the distillation teacher,
///   3. retrain on {old support set} U {new windows} with the joint
///      contrastive + distillation objective,
///   4. fold the new windows into the support set (herding),
///   5. recompute all NCM prototypes through the updated backbone.
///
/// An update is a value. Steps (1)-(5) run on a staged copy of `base` and
/// its support set; the staged model is the student, the herding embedder
/// and the prototype builder, while `base` — read-only by type — is the
/// frozen teacher. Success returns the staged copy as an `UpdateOutcome`;
/// an error at *any* step, including a failed registration of the new
/// name, drops it, so `base` and its support set are byte-identical after
/// every call and a failed capture is always safely retryable.
///
/// Counters: `learner.commits` (outcomes returned), `learner.rollbacks`
/// (staged copies dropped; each also notes an `update_rollback` flight
/// anomaly); the `learner.staged_bytes` gauge reports the staged payload
/// while an update runs.
class IncrementalLearner {
 public:
  explicit IncrementalLearner(IncrementalOptions options)
      : options_(options) {}

  const IncrementalOptions& options() const { return options_; }

  /// Learns a new activity named `name` from the user's recordings. The
  /// outcome's registry holds the new name.
  Result<UpdateOutcome> LearnNewActivity(
      const EdgeModel& base, const SupportSet& support,
      const std::string& name,
      const std::vector<sensors::Recording>& recordings) const;

  /// Re-calibrates the existing activity `id` to the user's personal style:
  /// identical to re-training, except the activity's support data is
  /// *replaced* by the newly acquired data (§3.3, final paragraph).
  Result<UpdateOutcome> Calibrate(
      const EdgeModel& base, const SupportSet& support,
      sensors::ActivityId id,
      const std::vector<sensors::Recording>& recordings) const;

 private:
  /// Stages a copy of `base` + `support`, runs `steps` on it, and returns
  /// it if every step succeeded (counting the commit or the rollback).
  Result<UpdateOutcome> Stage(
      const EdgeModel& base, const SupportSet& support,
      const std::function<Status(UpdateOutcome*)>& steps) const;

  /// Runs steps (1)-(5) on `staged`, with `base` as the frozen teacher.
  Status Update(UpdateOutcome* staged, const EdgeModel& base,
                sensors::ActivityId id,
                const std::vector<sensors::Recording>& recordings,
                bool is_new_class) const;

  IncrementalOptions options_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_INCREMENTAL_LEARNER_H_
