#include "core/edge_runtime.h"

#include <chrono>
#include <filesystem>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magneto::core {

namespace {

struct EdgeMetrics {
  obs::Counter* frames = obs::Registry::Global().GetCounter("edge.frames");
  obs::Counter* windows = obs::Registry::Global().GetCounter("edge.windows");
  obs::Counter* predictions =
      obs::Registry::Global().GetCounter("edge.predictions");
  obs::Counter* rejections =
      obs::Registry::Global().GetCounter("edge.rejections");
  obs::Counter* smoother_overrides =
      obs::Registry::Global().GetCounter("edge.smoother_overrides");
  obs::Counter* updates = obs::Registry::Global().GetCounter("edge.updates");
  obs::Histogram* classify_us =
      obs::Registry::Global().GetHistogram("edge.classify_us");
};

EdgeMetrics& Metrics() {
  static EdgeMetrics* metrics = new EdgeMetrics;
  return *metrics;
}

}  // namespace

EdgeRuntime::EdgeRuntime(EdgeModel model, SupportSet support,
                         IncrementalOptions options, double sample_rate_hz)
    : live_(std::make_shared<Live>(
          Live{std::move(model), std::move(support)})),
      learner_(options),
      sample_rate_hz_(sample_rate_hz) {}

Result<std::optional<NamedPrediction>> EdgeRuntime::PushFrame(
    const sensors::Frame& frame) {
  ++stats_.frames;
  Metrics().frames->Increment();
  if (mode_ == RuntimeMode::kRecording) {
    capture_buffer_.push_back(frame);
    return std::optional<NamedPrediction>{};
  }
  std::optional<Matrix> window =
      stream_.Push(frame, model().pipeline().config().segmentation);
  if (!window.has_value()) return std::optional<NamedPrediction>{};
  ++stats_.windows;
  Metrics().windows->Increment();
  obs::TraceSpan span("EdgeRuntime::Classify");
  obs::ScopedTimer classify_timer(Metrics().classify_us);
  MAGNETO_ASSIGN_OR_RETURN(NamedPrediction pred, model().InferWindow(*window));
  ++stats_.predictions;
  Metrics().predictions->Increment();
  if (pred.prediction.is_unknown()) Metrics().rejections->Increment();
  const sensors::ActivityId raw_activity = pred.prediction.activity;
  pred = stream_.Publish(std::move(pred));
  if (pred.prediction.activity != raw_activity) {
    Metrics().smoother_overrides->Increment();
  }
  return std::optional<NamedPrediction>(std::move(pred));
}

Status EdgeRuntime::StartRecording() {
  if (mode_ == RuntimeMode::kRecording) {
    return Status::FailedPrecondition("already recording");
  }
  mode_ = RuntimeMode::kRecording;
  capture_buffer_.clear();
  // Stale inference context would straddle modes.
  stream_.Reset();
  return Status::Ok();
}

sensors::Recording EdgeRuntime::FinishCapture() {
  sensors::Recording rec;
  rec.sample_rate_hz = sample_rate_hz_;
  rec.samples.Reset(capture_buffer_.size(), sensors::kNumChannels);
  for (size_t r = 0; r < capture_buffer_.size(); ++r) {
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      rec.samples.At(r, c) = capture_buffer_[r][c];
    }
  }
  capture_buffer_.clear();
  mode_ = RuntimeMode::kInference;
  return rec;
}

Result<UpdateReport> EdgeRuntime::FinishRecordingAndLearn(
    const std::string& name) {
  if (mode_ != RuntimeMode::kRecording) {
    return Status::FailedPrecondition("not recording");
  }
  if (UpdatePending()) {
    return Status::FailedPrecondition("a background update is pending");
  }
  sensors::Recording rec = FinishCapture();
  MAGNETO_ASSIGN_OR_RETURN(
      UpdateOutcome outcome,
      learner_.LearnNewActivity(live_->model, live_->support, name, {rec}));
  return Install(std::move(outcome));
}

Result<UpdateReport> EdgeRuntime::FinishRecordingAndCalibrate(
    const std::string& name) {
  if (mode_ != RuntimeMode::kRecording) {
    return Status::FailedPrecondition("not recording");
  }
  if (UpdatePending()) {
    return Status::FailedPrecondition("a background update is pending");
  }
  MAGNETO_ASSIGN_OR_RETURN(sensors::ActivityId id,
                           model().registry().IdOf(name));
  sensors::Recording rec = FinishCapture();
  MAGNETO_ASSIGN_OR_RETURN(
      UpdateOutcome outcome,
      learner_.Calibrate(live_->model, live_->support, id, {rec}));
  return Install(std::move(outcome));
}

UpdateReport EdgeRuntime::Install(UpdateOutcome outcome) {
  // Atomic from the caller's perspective: between PushFrame calls.
  live_ = std::make_shared<Live>(
      Live{std::move(outcome.model), std::move(outcome.support)});
  stream_.Reset();
  ++stats_.updates;
  Metrics().updates->Increment();
  if (!auto_checkpoint_path_.empty()) {
    // Only a committed outcome reaches this point, so what is persisted is
    // exactly the post-update model; after a failed update the previous
    // checkpoint (the pre-update model) stays authoritative on disk.
    Status saved = SaveCheckpoint(auto_checkpoint_path_);
    if (!saved.ok()) {
      MAGNETO_LOG(Warning) << "auto-checkpoint failed: " << saved.ToString();
    }
  }
  return std::move(outcome.report);
}

void EdgeRuntime::EnableAutoCheckpoint(std::string path) {
  auto_checkpoint_path_ = std::move(path);
}

void EdgeRuntime::CancelRecording() {
  capture_buffer_.clear();
  mode_ = RuntimeMode::kInference;
}

Status EdgeRuntime::FinishRecordingAndLearnAsync(const std::string& name) {
  if (mode_ != RuntimeMode::kRecording) {
    return Status::FailedPrecondition("not recording");
  }
  if (UpdatePending()) {
    return Status::FailedPrecondition("an update is already in flight");
  }
  std::vector<sensors::Recording> recordings{FinishCapture()};
  // The learner stages its own copy of the live model on the worker;
  // foreground inference keeps reading it meanwhile (const reads only).
  update_ = std::async(
      std::launch::async,
      [learner = learner_, base = std::shared_ptr<const Live>(live_), name,
       recordings = std::move(recordings)] {
        return learner.LearnNewActivity(base->model, base->support, name,
                                        recordings);
      });
  return Status::Ok();
}

bool EdgeRuntime::UpdatePending() const { return update_.valid(); }

bool EdgeRuntime::UpdateReady() const {
  return update_.valid() && update_.wait_for(std::chrono::seconds(0)) ==
                                std::future_status::ready;
}

Result<UpdateReport> EdgeRuntime::CommitUpdate() {
  if (!update_.valid()) {
    return Status::FailedPrecondition("no update was started");
  }
  MAGNETO_ASSIGN_OR_RETURN(UpdateOutcome outcome, update_.get());
  return Install(std::move(outcome));
}

ModelBundle EdgeRuntime::ToBundle() const {
  return ModelBundle::FromEdgeModel(model().Clone(), support());
}

std::string EdgeRuntime::LastKnownGoodPath(const std::string& path) {
  return path + ".lkg";
}

Status EdgeRuntime::SaveCheckpoint(const std::string& path) const {
  // Rotate the current checkpoint (whatever its health — it was the last
  // state this code accepted) to the fallback slot, then atomically write
  // the new one. A crash between the two steps leaves the .lkg loadable; a
  // crash mid-write leaves the temp behind and the rotation intact.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, LastKnownGoodPath(path), ec);
    if (ec) {
      return Status::IoError("checkpoint rotation failed: " + path + ": " +
                             ec.message());
    }
  }
  MAGNETO_RETURN_IF_ERROR(ToBundle().SaveToFile(path));
  static obs::Counter* const saves =
      obs::Registry::Global().GetCounter("edge.checkpoint.saves");
  saves->Increment();
  return Status::Ok();
}

Result<EdgeRuntime> EdgeRuntime::FromCheckpoint(const std::string& path,
                                                IncrementalOptions options,
                                                double sample_rate_hz) {
  bool used_fallback = false;
  MAGNETO_ASSIGN_OR_RETURN(
      ModelBundle bundle,
      ModelBundle::LoadFromFileWithFallback(path, LastKnownGoodPath(path),
                                            &used_fallback));
  if (used_fallback) {
    MAGNETO_LOG(Warning) << "checkpoint " << path
                         << " unusable; restored last-known-good "
                         << LastKnownGoodPath(path);
  }
  SupportSet support = std::move(bundle.support);
  return EdgeRuntime(std::move(bundle).ToEdgeModel(), std::move(support),
                     options, sample_rate_hz);
}

void EdgeRuntime::EnableJournal() {
  stream_.EnableJournal(model().pipeline().config().segmentation,
                        sample_rate_hz_);
}

double EdgeRuntime::recorded_seconds() const {
  return sample_rate_hz_ > 0
             ? static_cast<double>(capture_buffer_.size()) / sample_rate_hz_
             : 0.0;
}

}  // namespace magneto::core
