#include "core/incremental_learner.h"

#include <chrono>

#include "common/random.h"
#include "learn/ewc.h"
#include "nn/quantized_linear.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto::core {

namespace {

struct LearnerMetrics {
  obs::Counter* updates =
      obs::Registry::Global().GetCounter("learner.updates");
  obs::Histogram* update_ms = obs::Registry::Global().GetHistogram(
      "learner.update_ms", obs::LatencyBucketsMs());
  // Cost split of one incremental update: frozen-pipeline featurization of
  // the capture vs backbone retraining (distillation + contrastive) vs the
  // support-set / prototype refresh.
  obs::Histogram* preprocess_ms = obs::Registry::Global().GetHistogram(
      "learner.preprocess_ms", obs::LatencyBucketsMs());
  obs::Histogram* train_ms = obs::Registry::Global().GetHistogram(
      "learner.train_ms", obs::LatencyBucketsMs());
  obs::Histogram* support_ms = obs::Registry::Global().GetHistogram(
      "learner.support_ms", obs::LatencyBucketsMs());
  obs::Counter* commits =
      obs::Registry::Global().GetCounter("learner.commits");
  obs::Counter* rollbacks =
      obs::Registry::Global().GetCounter("learner.rollbacks");
  obs::Gauge* staged_bytes =
      obs::Registry::Global().GetGauge("learner.staged_bytes");
};

LearnerMetrics& Metrics() {
  static LearnerMetrics* metrics = new LearnerMetrics;
  return *metrics;
}

using UpdateClock = std::chrono::steady_clock;

double MsSince(UpdateClock::time_point start) {
  return std::chrono::duration<double>(UpdateClock::now() - start).count() *
         1e3;
}

/// Test-only injection point: pretends the step that just ran failed.
Status CheckStep(const IncrementalOptions& options, UpdateStep step) {
  if (options.failure_hook) return options.failure_hook(step);
  return Status::Ok();
}

/// Bytes of staged state: backbone weights + support exemplars + prototypes.
size_t StagedBytes(const UpdateOutcome& staged) {
  const NcmClassifier& classifier = staged.model.classifier();
  return staged.model.BackboneBytes() + staged.support.MemoryBytes() +
         classifier.num_classes() * classifier.embedding_dim() *
             sizeof(float);
}

/// Int8 layers are inference-only (no backward pass): an int8-compressed
/// deployment cannot be retrained on the device.
Status CheckTrainable(const EdgeModel& base) {
  const nn::Sequential& backbone = base.backbone();
  for (size_t i = 0; i < backbone.num_layers(); ++i) {
    if (static_cast<uint8_t>(backbone.layer(i).type()) ==
        nn::kQuantizedLinearTag) {
      return Status::FailedPrecondition(
          "the backbone is int8-compressed (inference-only) and cannot be "
          "retrained on the device");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<UpdateOutcome> IncrementalLearner::LearnNewActivity(
    const EdgeModel& base, const SupportSet& support, const std::string& name,
    const std::vector<sensors::Recording>& recordings) const {
  MAGNETO_RETURN_IF_ERROR(CheckTrainable(base));
  return Stage(base, support, [&](UpdateOutcome* staged) -> Status {
    // Registered on the staged registry: a failure anywhere below (or of
    // the registration itself) drops the copy and the name stays free for
    // a retry.
    MAGNETO_ASSIGN_OR_RETURN(sensors::ActivityId id,
                             staged->model.registry().Register(name));
    return Update(staged, base, id, recordings, /*is_new_class=*/true);
  });
}

Result<UpdateOutcome> IncrementalLearner::Calibrate(
    const EdgeModel& base, const SupportSet& support, sensors::ActivityId id,
    const std::vector<sensors::Recording>& recordings) const {
  MAGNETO_RETURN_IF_ERROR(CheckTrainable(base));
  if (!base.registry().Contains(id)) {
    return Status::NotFound("cannot calibrate unknown activity: " +
                            std::to_string(id));
  }
  if (!support.HasClass(id)) {
    return Status::FailedPrecondition(
        "activity has no support data to replace: " + std::to_string(id));
  }
  return Stage(base, support, [&](UpdateOutcome* staged) {
    return Update(staged, base, id, recordings, /*is_new_class=*/false);
  });
}

Result<UpdateOutcome> IncrementalLearner::Stage(
    const EdgeModel& base, const SupportSet& support,
    const std::function<Status(UpdateOutcome*)>& steps) const {
  UpdateOutcome staged{base.Clone(), support, UpdateReport{}};
  Metrics().staged_bytes->Set(static_cast<double>(StagedBytes(staged)));
  const Status status = steps(&staged);
  Metrics().staged_bytes->Set(0.0);
  if (!status.ok()) {
    Metrics().rollbacks->Increment();
    // A rollback is an anomaly worth a post-mortem: snapshot the recent
    // serving history (auto-dumps when a dump path is configured).
    obs::FlightRecorder::Global().NoteAnomaly("update_rollback");
    return status;
  }
  Metrics().commits->Increment();
  return staged;
}

Status IncrementalLearner::Update(
    UpdateOutcome* staged, const EdgeModel& base, sensors::ActivityId id,
    const std::vector<sensors::Recording>& recordings,
    bool is_new_class) const {
  obs::TraceSpan span("IncrementalLearner::Update");
  obs::ScopedTimer update_timer(Metrics().update_ms, /*scale=*/1e3);
  Metrics().updates->Increment();

  // (1) Preprocess the user's capture with the frozen pipeline.
  const auto preprocess_start = UpdateClock::now();
  std::vector<sensors::LabeledRecording> labeled;
  labeled.reserve(recordings.size());
  for (const sensors::Recording& rec : recordings) {
    labeled.push_back({rec, id});
  }
  MAGNETO_ASSIGN_OR_RETURN(sensors::FeatureDataset new_data,
                           base.pipeline().ProcessLabeled(labeled));
  Metrics().preprocess_ms->Record(MsSince(preprocess_start));
  if (new_data.empty()) {
    return Status::InvalidArgument(
        "recordings yielded no complete windows; record for longer");
  }
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kPreprocess));

  // (2) The base backbone — read-only by type — is the frozen distillation
  // teacher; the staged clone is the student being retrained. The
  // distillation targets are the embeddings of the retained knowledge:
  // every support class except the one being (re)learned.
  const sensors::FeatureDataset retained =
      is_new_class ? staged->support.AsDataset()
                   : staged->support.DatasetExcluding(id);

  // (3) Joint retraining on old exemplars + fresh windows (or, with
  // rehearsal disabled, the naive fine-tuning baseline).
  sensors::FeatureDataset train_data =
      options_.rehearse_support ? retained : sensors::FeatureDataset{};
  train_data.Merge(new_data);

  learn::TrainOptions train_options = options_.train;
  const bool distill =
      train_options.distill_weight > 0.0 && !retained.empty();
  const bool use_ewc = options_.ewc_weight > 0.0 && !retained.empty();
  train_options.ewc_weight = use_ewc ? options_.ewc_weight : 0.0;

  // EWC importance is measured on the *pre-update* weights against the
  // retained knowledge, before any weight moves — the staged backbone still
  // carries them at this point.
  nn::Sequential& student = staged->model.backbone();
  std::unique_ptr<learn::EwcRegularizer> ewc;
  if (use_ewc) {
    learn::EwcRegularizer::Options ewc_options;
    ewc_options.margin = train_options.margin;
    ewc_options.seed = options_.seed ^ 0x5757;
    MAGNETO_ASSIGN_OR_RETURN(
        learn::EwcRegularizer estimated,
        learn::EwcRegularizer::Estimate(&student, retained, ewc_options));
    ewc = std::make_unique<learn::EwcRegularizer>(std::move(estimated));
  }

  learn::SiameseTrainer trainer(train_options);
  learn::TrainReport train_report;
  const auto train_start = UpdateClock::now();
  MAGNETO_ASSIGN_OR_RETURN(
      train_report,
      trainer.Train(&student, train_data, distill ? &base.backbone() : nullptr,
                    distill ? &retained : nullptr, ewc.get()));
  Metrics().train_ms->Record(MsSince(train_start));
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kTrain));

  // (4) Support-set update: fold in (or, for calibration, replace with) the
  // fresh windows, herded through the *updated* (staged) embedding space.
  const auto support_start = UpdateClock::now();
  Rng rng(options_.seed ^ static_cast<uint64_t>(id));
  MAGNETO_RETURN_IF_ERROR(
      staged->support.SetClass(id, new_data, &staged->model, &rng));
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kSupportSet));

  // (5) All prototypes move when the backbone moves — rebuild every class,
  // keeping the staged classifier's serving config (int8 scans, ANN index).
  MAGNETO_RETURN_IF_ERROR(staged->model.RebuildPrototypes(staged->support));
  Metrics().support_ms->Record(MsSince(support_start));
  MAGNETO_RETURN_IF_ERROR(CheckStep(options_, UpdateStep::kPrototypes));

  staged->report.activity = id;
  staged->report.new_windows = new_data.size();
  staged->report.train = std::move(train_report);
  staged->report.support_bytes = staged->support.MemoryBytes();
  return Status::Ok();
}

}  // namespace magneto::core
