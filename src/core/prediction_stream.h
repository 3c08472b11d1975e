#ifndef MAGNETO_CORE_PREDICTION_STREAM_H_
#define MAGNETO_CORE_PREDICTION_STREAM_H_

#include <deque>
#include <memory>
#include <optional>

#include "common/matrix.h"
#include "core/activity_journal.h"
#include "core/drift_monitor.h"
#include "core/edge_model.h"
#include "core/smoother.h"
#include "preprocess/segmentation.h"
#include "sensors/sensor_types.h"

namespace magneto::core {

/// One user's frame -> label stream: everything between raw sensor frames
/// and a published prediction except the model. `Push` assembles raw
/// windows; the owner classifies each one and hands the result to
/// `Publish`. `EdgeRuntime` owns one stream and `platform::EdgeFleet` one
/// per session, so both paths share these semantics by construction.
/// Not thread-safe: the owner serializes calls.
class PredictionStream {
 public:
  /// Buffers one frame. Returns the raw window (window_samples x channels)
  /// when this frame completes one, then advances by `seg.stride`. With
  /// stride > window (gapped sampling) the surplus frames are dropped as
  /// they arrive.
  std::optional<Matrix> Push(const sensors::Frame& frame,
                             const preprocess::SegmentationConfig& seg);

  /// Applies the smoother, then the drift monitor, then the journal to one
  /// classified window; returns (and remembers) the published prediction.
  NamedPrediction Publish(NamedPrediction prediction);

  /// Drops what must not straddle a mode switch or a model swap: the
  /// half-built window, the gap still owed, smoother votes and drift
  /// evidence. The journal (the user's ledger) and the last prediction stay.
  void Reset();

  void EnableSmoothing(PredictionSmoother::Options options) {
    smoother_ = std::make_unique<PredictionSmoother>(options);
  }
  void DisableSmoothing() { smoother_.reset(); }
  /// `baseline_distance` as in `DriftMonitor::SetBaselineDistance`.
  void EnableDriftMonitoring(DriftMonitor::Options options,
                             double baseline_distance);
  void DisableDriftMonitoring() { drift_.reset(); }
  /// Starts a fresh journal; each window accounts for `seg.stride` frames at
  /// `sample_rate_hz` (1 s when the rate is not positive).
  void EnableJournal(const preprocess::SegmentationConfig& seg,
                     double sample_rate_hz);

  bool drifting() const { return drift_ != nullptr && drift_->drifting(); }
  /// nullptr unless enabled.
  const ActivityJournal* journal() const { return journal_.get(); }
  const std::optional<NamedPrediction>& last_prediction() const {
    return last_;
  }
  /// Records a prediction made outside the frame stream (the fleet's
  /// open-loop windows) without feeding the stream-ordered consumers.
  void set_last_prediction(NamedPrediction prediction) {
    last_ = std::move(prediction);
  }

 private:
  std::deque<sensors::Frame> frames_;
  size_t pending_skip_ = 0;  ///< frames still owed to a stride gap
  std::unique_ptr<PredictionSmoother> smoother_;
  std::unique_ptr<DriftMonitor> drift_;
  std::unique_ptr<ActivityJournal> journal_;
  std::optional<NamedPrediction> last_;
};

}  // namespace magneto::core

#endif  // MAGNETO_CORE_PREDICTION_STREAM_H_
