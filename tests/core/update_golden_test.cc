// Golden outputs of the on-device update (§3.3). A runtime learns a new
// gesture and then re-calibrates Walk; a 64-bit digest of the serialized
// bundle afterwards (backbone weights, prototypes, registry, support set) is
// compared against a pinned value. Each configuration — fp32, and a wire-v3
// (int8 prototypes + int8 support rows) deployment serving through the ANN
// index — runs once through the blocking `FinishRecordingAndLearn` and once
// through the background `FinishRecordingAndLearnAsync` + `CommitUpdate`.
// Any change to the update arithmetic (preprocessing, distillation,
// herding, prototype rebuild) moves a digest; a change to how an update is
// staged or installed must not.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/edge_runtime.h"
#include "sensors/user_profile.h"
#include "testing/test_helpers.h"

namespace magneto::core {
namespace {

IncrementalOptions GoldenOptions() {
  IncrementalOptions options;
  options.train.epochs = 3;
  options.train.batch_size = 32;
  options.train.learning_rate = 1e-3;
  options.train.distill_weight = 1.0;
  options.train.seed = 5;
  options.seed = 6;
  return options;
}

const ModelBundle& PretrainedBundle() {
  static const ModelBundle* bundle =
      new ModelBundle(testing::SmallPretrainedBundle(501));
  return *bundle;
}

EdgeRuntime Fp32Runtime() {
  ModelBundle bundle =
      ModelBundle::FromString(PretrainedBundle().SerializeToString()).value();
  SupportSet support = std::move(bundle.support);
  return EdgeRuntime(std::move(bundle).ToEdgeModel(), std::move(support),
                     GoldenOptions());
}

EdgeRuntime WireV3AnnRuntime() {
  ModelBundle cloud =
      ModelBundle::FromString(PretrainedBundle().SerializeToString()).value();
  cloud.wire_version = kBundleWireV3;
  MAGNETO_CHECK(cloud.classifier.QuantizePrototypes().ok());
  ModelBundle bundle =
      ModelBundle::FromString(cloud.SerializeToString()).value();
  SupportSet support = std::move(bundle.support);
  EdgeRuntime runtime(std::move(bundle).ToEdgeModel(), std::move(support),
                      GoldenOptions());
  AnnOptions ann;
  ann.min_index_size = 1;
  ann.nlist = 2;
  ann.nprobe = 1;
  MAGNETO_CHECK(runtime.model().EnableAnn(ann).ok());
  return runtime;
}

void Record(EdgeRuntime* runtime, const sensors::Recording& capture) {
  ASSERT_TRUE(runtime->StartRecording().ok());
  for (size_t i = 0; i < capture.num_samples(); ++i) {
    sensors::Frame frame;
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frame[c] = capture.samples.At(i, c);
    }
    ASSERT_TRUE(runtime->PushFrame(frame).ok());
  }
}

/// FNV-1a over raw bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

enum class Path { kSync, kAsync };

/// Learns a gesture (through `path`), then calibrates Walk, and digests the
/// resulting bundle.
uint64_t UpdateDigest(EdgeRuntime runtime, Path path) {
  sensors::SyntheticGenerator gen(502);
  Record(&runtime, gen.Generate(sensors::MakeGestureModel(503), 20.0));
  if (path == Path::kSync) {
    auto learned = runtime.FinishRecordingAndLearn("Gesture Hi");
    EXPECT_TRUE(learned.ok()) << learned.status();
  } else {
    EXPECT_TRUE(runtime.FinishRecordingAndLearnAsync("Gesture Hi").ok());
    auto learned = runtime.CommitUpdate();
    EXPECT_TRUE(learned.ok()) << learned.status();
  }
  sensors::UserProfile user(504, 0.8);
  Record(&runtime,
         gen.Generate(user.Personalize(
                          sensors::DefaultActivityLibrary()[sensors::kWalk]),
                      20.0));
  auto calibrated = runtime.FinishRecordingAndCalibrate("Walk");
  EXPECT_TRUE(calibrated.ok()) << calibrated.status();
  EXPECT_EQ(runtime.stats().updates, 2u);
  return Fnv1a(runtime.ToBundle().SerializeToString());
}

constexpr uint64_t kFp32 = 0x19df61366952fe18ULL;
constexpr uint64_t kWireV3Ann = 0xa5b9cf29cef45579ULL;

TEST(UpdateGoldenTest, Fp32Sync) {
  EXPECT_EQ(UpdateDigest(Fp32Runtime(), Path::kSync), kFp32);
}

TEST(UpdateGoldenTest, Fp32Async) {
  EXPECT_EQ(UpdateDigest(Fp32Runtime(), Path::kAsync), kFp32);
}

TEST(UpdateGoldenTest, WireV3AnnSync) {
  EXPECT_EQ(UpdateDigest(WireV3AnnRuntime(), Path::kSync), kWireV3Ann);
}

TEST(UpdateGoldenTest, WireV3AnnAsync) {
  EXPECT_EQ(UpdateDigest(WireV3AnnRuntime(), Path::kAsync), kWireV3Ann);
}

}  // namespace
}  // namespace magneto::core
