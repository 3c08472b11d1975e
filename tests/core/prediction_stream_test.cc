#include "core/prediction_stream.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace magneto::core {
namespace {

preprocess::SegmentationConfig Seg(size_t window_samples, size_t stride) {
  preprocess::SegmentationConfig seg;
  seg.window_samples = window_samples;
  seg.stride = stride;
  return seg;
}

/// Frame `i` carries `i` in every channel, so a window's rows name the
/// frames it was built from.
sensors::Frame FrameNo(int i) {
  sensors::Frame frame;
  frame.fill(static_cast<float>(i));
  return frame;
}

NamedPrediction Pred(sensors::ActivityId id, double confidence) {
  NamedPrediction p;
  p.prediction.activity = id;
  p.prediction.confidence = confidence;
  p.prediction.distance = 1.0;
  p.name = std::to_string(id);
  return p;
}

/// Pushes frames `first..last` and returns, per closed window, the frame
/// numbers of its rows (read from channel 0).
std::vector<std::vector<int>> PushRange(
    PredictionStream* stream, const preprocess::SegmentationConfig& seg,
    int first, int last) {
  std::vector<std::vector<int>> windows;
  for (int i = first; i <= last; ++i) {
    std::optional<Matrix> window = stream->Push(FrameNo(i), seg);
    if (!window.has_value()) continue;
    EXPECT_EQ(window->rows(), seg.window_samples);
    EXPECT_EQ(window->cols(), sensors::kNumChannels);
    std::vector<int> rows;
    for (size_t r = 0; r < window->rows(); ++r) {
      rows.push_back(static_cast<int>(window->At(r, 0)));
      EXPECT_EQ(window->At(r, sensors::kNumChannels - 1), window->At(r, 0));
    }
    windows.push_back(rows);
  }
  return windows;
}

TEST(PredictionStreamTest, OverlappingWindowsAdvanceByStride) {
  PredictionStream stream;
  const auto seg = Seg(4, 2);
  EXPECT_EQ(PushRange(&stream, seg, 1, 8),
            (std::vector<std::vector<int>>{
                {1, 2, 3, 4}, {3, 4, 5, 6}, {5, 6, 7, 8}}));
}

TEST(PredictionStreamTest, GappedStrideDropsSurplusFrames) {
  // window 3, stride 5: take 3 frames, drop the next 2, take 3, ...
  PredictionStream stream;
  const auto seg = Seg(3, 5);
  EXPECT_EQ(PushRange(&stream, seg, 1, 13),
            (std::vector<std::vector<int>>{
                {1, 2, 3}, {6, 7, 8}, {11, 12, 13}}));
}

TEST(PredictionStreamTest, ResetDropsHalfWindowAndOwedGap) {
  PredictionStream stream;
  const auto seg = Seg(3, 5);
  EXPECT_EQ(PushRange(&stream, seg, 1, 3).size(), 1u);  // 2 frames now owed
  stream.Reset();
  // No gap left to skip: the next window is the next three frames.
  EXPECT_EQ(PushRange(&stream, seg, 4, 6),
            (std::vector<std::vector<int>>{{4, 5, 6}}));
  EXPECT_TRUE(PushRange(&stream, seg, 7, 8).empty());  // the owed gap
  EXPECT_TRUE(PushRange(&stream, seg, 9, 10).empty());  // half a window
  stream.Reset();
  EXPECT_EQ(PushRange(&stream, seg, 11, 13),
            (std::vector<std::vector<int>>{{11, 12, 13}}));
}

TEST(PredictionStreamTest, PublishWithoutConsumersPassesThrough) {
  PredictionStream stream;
  EXPECT_FALSE(stream.last_prediction().has_value());
  EXPECT_EQ(stream.journal(), nullptr);
  EXPECT_FALSE(stream.drifting());
  NamedPrediction out = stream.Publish(Pred(2, 0.7));
  EXPECT_EQ(out.prediction.activity, 2);
  EXPECT_EQ(out.name, "2");
  ASSERT_TRUE(stream.last_prediction().has_value());
  EXPECT_EQ(stream.last_prediction()->prediction.activity, 2);
}

TEST(PredictionStreamTest, PublishSmoothsBeforeDriftAndJournal) {
  PredictionStream stream;
  stream.EnableSmoothing({.window = 5});
  stream.EnableDriftMonitoring({.window = 3, .min_confidence = 0.9},
                               /*baseline_distance=*/0.0);
  stream.EnableJournal(Seg(120, 60), /*sample_rate_hz=*/120.0);
  for (int i = 0; i < 3; ++i) stream.Publish(Pred(0, 0.8));
  // One outlier is voted down; the journal and the last prediction see the
  // smoothed label, not the raw one.
  NamedPrediction out = stream.Publish(Pred(1, 0.6));
  EXPECT_EQ(out.prediction.activity, 0);
  EXPECT_EQ(stream.last_prediction()->prediction.activity, 0);
  ASSERT_NE(stream.journal(), nullptr);
  EXPECT_DOUBLE_EQ(stream.journal()->TotalSeconds(0), 2.0);  // 4 x 0.5 s
  EXPECT_DOUBLE_EQ(stream.journal()->TotalSeconds(1), 0.0);
  // The drift monitor observes the smoothed confidences (1, 1, 0.8: mean
  // 0.93) and stays quiet; the raw ones (0.8, 0.8, 0.6) would have alarmed.
  EXPECT_FALSE(stream.drifting());
}

TEST(PredictionStreamTest, ResetClearsEvidenceButKeepsJournal) {
  PredictionStream stream;
  stream.EnableSmoothing({.window = 5});
  stream.EnableDriftMonitoring({.window = 2, .min_confidence = 0.9}, 0.0);
  stream.EnableJournal(Seg(120, 120), 120.0);
  stream.Publish(Pred(0, 0.8));
  stream.Publish(Pred(1, 0.8));
  ASSERT_TRUE(stream.drifting());
  stream.Reset();
  EXPECT_FALSE(stream.drifting());
  EXPECT_DOUBLE_EQ(stream.journal()->elapsed_seconds(), 2.0);
  EXPECT_TRUE(stream.last_prediction().has_value());
  // Smoother history is gone: a fresh label wins at once.
  EXPECT_EQ(stream.Publish(Pred(3, 0.8)).prediction.activity, 3);
}

TEST(PredictionStreamTest, JournalWindowFollowsStrideAndRate) {
  PredictionStream stream;
  stream.EnableJournal(Seg(120, 240), 120.0);
  stream.Publish(Pred(0, 0.8));
  EXPECT_DOUBLE_EQ(stream.journal()->elapsed_seconds(), 2.0);
  // A non-positive rate falls back to one second per window, and
  // re-enabling starts a fresh journal.
  stream.EnableJournal(Seg(120, 240), 0.0);
  stream.Publish(Pred(0, 0.8));
  EXPECT_DOUBLE_EQ(stream.journal()->elapsed_seconds(), 1.0);
}

TEST(PredictionStreamTest, SetLastPredictionBypassesConsumers) {
  PredictionStream stream;
  stream.EnableSmoothing({.window = 3});
  stream.EnableJournal(Seg(120, 120), 120.0);
  stream.set_last_prediction(Pred(4, 0.9));
  EXPECT_EQ(stream.last_prediction()->prediction.activity, 4);
  EXPECT_DOUBLE_EQ(stream.journal()->elapsed_seconds(), 0.0);
  // The smoother never saw it either.
  EXPECT_EQ(stream.Publish(Pred(1, 0.9)).prediction.activity, 1);
}

TEST(PredictionStreamTest, DisablingConsumersStopsThem) {
  PredictionStream stream;
  stream.EnableDriftMonitoring({.window = 1, .min_confidence = 0.9}, 0.0);
  stream.Publish(Pred(0, 0.5));
  ASSERT_TRUE(stream.drifting());
  stream.DisableDriftMonitoring();
  EXPECT_FALSE(stream.drifting());

  stream.EnableSmoothing({.window = 5});
  stream.Publish(Pred(0, 0.9));
  // With the smoother armed the 0.9 vote would outweigh this 0.5 one.
  stream.DisableSmoothing();
  EXPECT_EQ(stream.Publish(Pred(1, 0.5)).prediction.activity, 1);
}

}  // namespace
}  // namespace magneto::core
