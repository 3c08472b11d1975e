#include "core/prediction_stream.h"

#include <algorithm>

namespace magneto::core {

std::optional<Matrix> PredictionStream::Push(
    const sensors::Frame& frame, const preprocess::SegmentationConfig& seg) {
  if (pending_skip_ > 0) {
    --pending_skip_;
    return std::nullopt;
  }
  frames_.push_back(frame);
  if (frames_.size() < seg.window_samples) return std::nullopt;
  Matrix window(seg.window_samples, sensors::kNumChannels);
  for (size_t r = 0; r < seg.window_samples; ++r) {
    const sensors::Frame& f = frames_[r];
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      window.At(r, c) = f[c];
    }
  }
  const size_t advance = std::min(seg.stride, frames_.size());
  frames_.erase(frames_.begin(), frames_.begin() + advance);
  pending_skip_ = seg.stride - advance;
  return window;
}

NamedPrediction PredictionStream::Publish(NamedPrediction prediction) {
  if (smoother_ != nullptr) prediction = smoother_->Push(prediction);
  if (drift_ != nullptr) drift_->Observe(prediction.prediction);
  if (journal_ != nullptr) journal_->Record(prediction);
  last_ = prediction;
  return prediction;
}

void PredictionStream::Reset() {
  frames_.clear();
  pending_skip_ = 0;
  if (smoother_ != nullptr) smoother_->Reset();
  if (drift_ != nullptr) drift_->Reset();
}

void PredictionStream::EnableDriftMonitoring(DriftMonitor::Options options,
                                             double baseline_distance) {
  drift_ = std::make_unique<DriftMonitor>(options);
  drift_->SetBaselineDistance(baseline_distance);
}

void PredictionStream::EnableJournal(const preprocess::SegmentationConfig& seg,
                                     double sample_rate_hz) {
  journal_ = std::make_unique<ActivityJournal>(
      sample_rate_hz > 0 ? static_cast<double>(seg.stride) / sample_rate_hz
                         : 1.0);
}

}  // namespace magneto::core
