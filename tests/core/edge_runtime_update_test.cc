// On-device updates through EdgeRuntime: the blocking
// FinishRecordingAndLearn/-Calibrate calls and the background
// FinishRecordingAndLearnAsync + CommitUpdate path share one commit point.
// These tests pin what that commit point promises: a failed update at any
// step leaves the runtime byte-identical, the capture is retryable, only one
// update is ever in flight, and a runtime can be destroyed mid-update.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/edge_runtime.h"
#include "obs/metrics.h"
#include "sensors/user_profile.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

IncrementalOptions FastOptions() {
  IncrementalOptions options;
  options.train.epochs = 5;
  options.train.batch_size = 32;
  options.train.distill_weight = 1.0;
  options.train.seed = 7;
  return options;
}

IncrementalOptions FailAt(UpdateStep step) {
  IncrementalOptions options = FastOptions();
  options.failure_hook = [step](UpdateStep s) {
    return s == step ? Status::Internal("injected step failure")
                     : Status::Ok();
  };
  return options;
}

const UpdateStep kAllSteps[] = {UpdateStep::kPreprocess, UpdateStep::kTrain,
                                UpdateStep::kSupportSet,
                                UpdateStep::kPrototypes};

EdgeRuntime MakeRuntime(uint64_t seed, IncrementalOptions options) {
  ModelBundle bundle = testing::SmallPretrainedBundle(seed);
  SupportSet support = std::move(bundle.support);
  EdgeModel model = std::move(bundle).ToEdgeModel();
  return EdgeRuntime(std::move(model), std::move(support), options);
}

void Push(EdgeRuntime* runtime, const sensors::Recording& rec) {
  for (size_t i = 0; i < rec.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = rec.samples.At(i, c);
    }
    ASSERT_TRUE(runtime->PushFrame(frame).ok());
  }
}

/// Records a capture of the synthetic gesture `seed`.
void RecordGesture(EdgeRuntime* runtime, uint64_t seed) {
  ASSERT_TRUE(runtime->StartRecording().ok());
  sensors::SyntheticGenerator gen(seed);
  Push(runtime, gen.Generate(sensors::MakeGestureModel(seed), 20.0));
}

/// Records a personal-style Walk capture.
void RecordPersonalWalk(EdgeRuntime* runtime, uint64_t seed) {
  ASSERT_TRUE(runtime->StartRecording().ok());
  sensors::UserProfile user(seed, 0.8);
  sensors::SyntheticGenerator gen(seed + 1);
  Push(runtime,
       gen.Generate(user.Personalize(
                        sensors::DefaultActivityLibrary()[sensors::kWalk]),
                    20.0));
}

/// Full serialized runtime state: backbone, prototypes, registry, support.
std::string StateBytes(const EdgeRuntime& runtime) {
  return runtime.ToBundle().SerializeToString();
}

uint64_t CounterValue(const char* name) {
  const auto snap = obs::Registry::Global().TakeSnapshot();
  const auto* counter = snap.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

// -- Blocking updates --------------------------------------------------------

TEST(EdgeRuntimeUpdateTest, LearnFailureAtEveryStepLeavesStateByteIdentical) {
  for (UpdateStep step : kAllSteps) {
    SCOPED_TRACE(static_cast<int>(step));
    EdgeRuntime runtime = MakeRuntime(711, FailAt(step));
    const std::string before = StateBytes(runtime);
    const uint64_t rollbacks = CounterValue("learner.rollbacks");
    RecordGesture(&runtime, 1);
    auto res = runtime.FinishRecordingAndLearn("Gesture Hi");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInternal);
    EXPECT_EQ(StateBytes(runtime), before)
        << "a failed update leaked into the live deployment";
    EXPECT_EQ(CounterValue("learner.rollbacks"), rollbacks + 1);
    EXPECT_FALSE(runtime.model().registry().IdOf("Gesture Hi").ok());
    EXPECT_EQ(runtime.stats().updates, 0u);
    EXPECT_EQ(runtime.mode(), RuntimeMode::kInference);
  }
}

TEST(EdgeRuntimeUpdateTest,
     CalibrateFailureAtEveryStepLeavesStateByteIdentical) {
  for (UpdateStep step : kAllSteps) {
    SCOPED_TRACE(static_cast<int>(step));
    EdgeRuntime runtime = MakeRuntime(712, FailAt(step));
    const std::string before = StateBytes(runtime);
    RecordPersonalWalk(&runtime, 2);
    auto res = runtime.FinishRecordingAndCalibrate("Walk");
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(StateBytes(runtime), before);
    EXPECT_EQ(runtime.stats().updates, 0u);
  }
}

TEST(EdgeRuntimeUpdateTest, RetryAndCalibrateSucceedAfterFailedLearn) {
  // The first update fails at the support-set step; later ones run clean.
  IncrementalOptions options = FastOptions();
  auto failures_left = std::make_shared<int>(1);
  options.failure_hook = [failures_left](UpdateStep s) {
    if (s == UpdateStep::kSupportSet && *failures_left > 0) {
      --*failures_left;
      return Status::Internal("injected step failure");
    }
    return Status::Ok();
  };
  EdgeRuntime runtime = MakeRuntime(713, options);
  RecordGesture(&runtime, 3);
  ASSERT_FALSE(runtime.FinishRecordingAndLearn("Gesture Hi").ok());

  // The rolled-back name is free: the same capture retried lands...
  RecordGesture(&runtime, 3);
  auto retry = runtime.FinishRecordingAndLearn("Gesture Hi");
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(runtime.model().registry().IdOf("Gesture Hi").ok());

  // ...and so does a calibration of a pre-existing activity.
  RecordPersonalWalk(&runtime, 4);
  auto calibrated = runtime.FinishRecordingAndCalibrate("Walk");
  EXPECT_TRUE(calibrated.ok()) << calibrated.status();
  EXPECT_EQ(runtime.stats().updates, 2u);
}

// -- Background updates ------------------------------------------------------

TEST(EdgeRuntimeAsyncTest, FullAsyncFlowWithHotSwap) {
  EdgeRuntime runtime = MakeRuntime(707, FastOptions());
  RecordGesture(&runtime, 55);

  // Kick off the background update; inference resumes immediately.
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture Hi").ok());
  EXPECT_EQ(runtime.mode(), RuntimeMode::kInference);
  EXPECT_TRUE(runtime.UpdatePending());
  sensors::SyntheticGenerator gen(11);
  Push(&runtime,
       gen.Generate(sensors::DefaultActivityLibrary()[sensors::kStill], 1.0));
  EXPECT_EQ(runtime.model().registry().size(), 5u);  // old model still live

  // Commit the hot swap.
  auto report = runtime.CommitUpdate();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(runtime.UpdatePending());
  EXPECT_EQ(runtime.model().registry().size(), 6u);
  EXPECT_TRUE(runtime.support().HasClass(report.value().activity));
  EXPECT_EQ(runtime.stats().updates, 1u);
}

TEST(EdgeRuntimeAsyncTest, CommitWithoutStartFails) {
  EdgeRuntime runtime = MakeRuntime(708, FastOptions());
  EXPECT_EQ(runtime.CommitUpdate().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EdgeRuntimeAsyncTest, BackgroundLearnProducesUsableModel) {
  EdgeRuntime runtime = MakeRuntime(701, FastOptions());
  RecordGesture(&runtime, 1);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture Hi").ok());
  auto report = runtime.CommitUpdate();
  ASSERT_TRUE(report.ok()) << report.status();

  // The committed model recognises fresh gesture windows.
  sensors::SyntheticGenerator gen(2);
  auto preds = runtime.model().InferRecording(
      gen.Generate(sensors::MakeGestureModel(1), 8.0));
  ASSERT_TRUE(preds.ok());
  size_t hits = 0;
  for (const auto& p : preds.value()) {
    if (p.prediction.activity == report.value().activity) ++hits;
  }
  EXPECT_GT(hits, preds.value().size() / 2)
      << "gesture recognised in " << hits << "/" << preds.value().size();
}

TEST(EdgeRuntimeAsyncTest, OnlyOneUpdateInFlight) {
  EdgeRuntime runtime = MakeRuntime(702, FastOptions());
  RecordGesture(&runtime, 3);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("A").ok());
  RecordGesture(&runtime, 4);
  EXPECT_EQ(runtime.FinishRecordingAndLearnAsync("B").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.mode(), RuntimeMode::kRecording);  // capture kept
  runtime.CancelRecording();
  ASSERT_TRUE(runtime.CommitUpdate().ok());
  // After the commit, a new update may start.
  RecordGesture(&runtime, 5);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("B").ok());
  ASSERT_TRUE(runtime.CommitUpdate().ok());
  EXPECT_EQ(runtime.model().registry().size(), 7u);
}

TEST(EdgeRuntimeAsyncTest, SyncUpdateRefusedWhileAsyncPending) {
  // Committing a blocking update while a background one runs would lose
  // it: the later CommitUpdate installs an outcome learned from the older
  // model.
  EdgeRuntime runtime = MakeRuntime(709, FastOptions());
  RecordGesture(&runtime, 6);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture A").ok());

  RecordGesture(&runtime, 7);
  EXPECT_EQ(runtime.FinishRecordingAndLearn("Gesture B").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.FinishRecordingAndCalibrate("Walk").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.mode(), RuntimeMode::kRecording);  // capture kept
  runtime.CancelRecording();

  ASSERT_TRUE(runtime.CommitUpdate().ok());
  RecordGesture(&runtime, 7);
  ASSERT_TRUE(runtime.FinishRecordingAndLearn("Gesture B").ok());
  // Both updates survive.
  EXPECT_TRUE(runtime.model().registry().IdOf("Gesture A").ok());
  EXPECT_TRUE(runtime.model().registry().IdOf("Gesture B").ok());
  EXPECT_EQ(runtime.stats().updates, 2u);
}

TEST(EdgeRuntimeAsyncTest, TrainingErrorSurfacesAtCommitUpdate) {
  EdgeRuntime runtime = MakeRuntime(703, FastOptions());
  const std::string before = StateBytes(runtime);
  // A duplicate name fails inside the background update.
  RecordGesture(&runtime, 6);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Walk").ok());
  auto report = runtime.CommitUpdate();
  EXPECT_EQ(report.status().code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(runtime.UpdatePending());
  EXPECT_EQ(StateBytes(runtime), before);
  EXPECT_EQ(runtime.stats().updates, 0u);
}

TEST(EdgeRuntimeAsyncTest, UpdateReadyBecomesTrueEventually) {
  EdgeRuntime runtime = MakeRuntime(704, FastOptions());
  RecordGesture(&runtime, 7);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("G").ok());
  // Poll like a UI would.
  for (int i = 0; i < 600 && !runtime.UpdateReady(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(runtime.UpdateReady());
  EXPECT_TRUE(runtime.CommitUpdate().ok());
  EXPECT_FALSE(runtime.UpdateReady());
}

TEST(EdgeRuntimeAsyncTest, CalibrateAfterBackgroundLearn) {
  EdgeRuntime runtime = MakeRuntime(705, FastOptions());
  RecordGesture(&runtime, 8);
  ASSERT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture Hi").ok());
  ASSERT_TRUE(runtime.CommitUpdate().ok());
  RecordPersonalWalk(&runtime, 9);
  auto report = runtime.FinishRecordingAndCalibrate("Walk");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().activity, sensors::kWalk);
  EXPECT_EQ(runtime.model().registry().size(), 6u);
}

TEST(EdgeRuntimeAsyncTest, DestroyWhileUpdateRuns) {
  for (int round = 0; round < 2; ++round) {
    auto runtime =
        std::make_unique<EdgeRuntime>(MakeRuntime(706, FastOptions()));
    RecordGesture(runtime.get(), 10);
    ASSERT_TRUE(runtime->FinishRecordingAndLearnAsync("G").ok());
    sensors::SyntheticGenerator gen(11);
    Push(runtime.get(),
         gen.Generate(sensors::DefaultActivityLibrary()[sensors::kWalk], 1.0));
    // Destroyed while training: waits for the update, no crash or leak.
    runtime.reset();
  }
}

}  // namespace
}  // namespace magneto::core
