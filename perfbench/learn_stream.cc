// learn_while_streaming: the write side beside the read side. One EdgeRuntime
// on the fp32 paper backbone, pre-trained on a base split of a procedural
// vocabulary, captures 20 s of each of two new classes and learns each with
// FinishRecordingAndLearnAsync (default IncrementalOptions: 15 epochs,
// distillation, herding). While an update runs, the main thread keeps
// streaming raw frames through PushFrame; each update ends with CommitUpdate.
// Thread budget: a pool of 3 lanes plus the stream thread. The measured
// phase is the fixed work of both updates, whatever --seconds says.

#include <memory>

#include "bench.h"

namespace magneto::perfbench {
namespace {

constexpr size_t kSetups = 3;
constexpr size_t kBaseClasses = 20;
constexpr size_t kNewClasses = 2;
// The vocabulary and the pre-trained deployment are part of the workload's
// definition; --seed draws the captures, the live stream and the held-out
// evaluation windows.
constexpr uint64_t kVocabularySeed = 2025;
constexpr uint64_t kDeploymentSeed = 1;
// Squeezes the procedural classes together so that base accuracy before any
// update lands in 0.85-0.95 instead of saturating at 1.0.
constexpr double kOverlap = 0.9;
// Procedural classes differ partly in environment baselines, which per-user
// baseline shifts would erase; vocabulary users are canonical and vary only
// by capture noise and phase.
constexpr double kIntensity = 0.0;
constexpr size_t kCorpusUsers = 2;
constexpr double kCorpusSeconds = 6.0;
constexpr size_t kPretrainEpochs = 15;
constexpr double kCaptureSeconds = 20.0;
constexpr size_t kEvalUsers = 4;
constexpr double kEvalSeconds = 5.0;
constexpr size_t kLiveBouts = 24;  // live stream: 24 bouts x 10 windows
constexpr size_t kLiveWindowsPerBout = 10;
constexpr size_t kPoolThreads = 3;

sensors::ActivityLibrary Library() {
  sensors::LargeVocabularyOptions vocab;
  vocab.num_classes = kBaseClasses + kNewClasses;
  vocab.overlap = kOverlap;
  vocab.seed = kVocabularySeed;
  return sensors::LargeVocabularyLibrary(vocab);
}

std::unique_ptr<core::EdgeRuntime> Boot(const sensors::ActivityLibrary& base,
                                        uint64_t seed) {
  core::CloudInitializer cloud(PaperConfig(seed, kPretrainEpochs));
  core::ModelBundle bundle = Take(
      cloud.Initialize(
          PopulationCorpus(base, seed * 13 + 2, kCorpusUsers, kCorpusSeconds,
                           kIntensity, /*contexts=*/false),
          VocabularyRegistry(base)),
      "pretrain");
  core::SupportSet support = std::move(bundle.support);
  return std::make_unique<core::EdgeRuntime>(std::move(bundle).ToEdgeModel(),
                                             std::move(support),
                                             core::IncrementalOptions{});
}

double Accuracy(core::EdgeModel* model, const sensors::FeatureDataset& data) {
  const auto pairs = Take(model->Predict(data), "predict");
  size_t correct = 0;
  for (const auto& [truth, predicted] : pairs) correct += truth == predicted;
  return pairs.empty() ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(pairs.size());
}

/// Mean of a registry histogram (sum / count); 0 when it never recorded.
double HistogramMean(const obs::Snapshot& snap, const char* name) {
  const auto* h = snap.FindHistogram(name);
  return h != nullptr && h->count > 0
             ? h->sum / static_cast<double>(h->count)
             : 0.0;
}

}  // namespace

void RunLearnWhileStreaming(const Args& args, Report* report) {
  SetParallelThreads(kSetupThreads);
  const sensors::ActivityLibrary library = Library();
  const sensors::ActivityLibrary base = Slice(library, 0, kBaseClasses);
  const sensors::ActivityLibrary fresh =
      Slice(library, kBaseClasses, kBaseClasses + kNewClasses);

  Samples setup_s;
  std::unique_ptr<core::EdgeRuntime> runtime;
  for (size_t i = 0; i < kSetups; ++i) {
    runtime.reset();
    const auto t0 = Clock::now();
    runtime = Boot(base, kDeploymentSeed);
    setup_s.Add(SecondsSince(t0));
  }
  SetParallelThreads(kPoolThreads);
  const preprocess::Pipeline pipeline = runtime->model().pipeline();
  const size_t window = pipeline.config().segmentation.window_samples;

  // Held-out evaluation users, the live stream, and the captures.
  const sensors::FeatureDataset eval_old = Take(
      pipeline.ProcessLabeled(
          PopulationCorpus(base, args.seed * 13 + 3, kEvalUsers, kEvalSeconds,
                           kIntensity, /*contexts=*/false)),
      "featurize eval");
  const sensors::FeatureDataset eval_new = Take(
      pipeline.ProcessLabeled(PopulationCorpus(fresh, args.seed * 13 + 4,
                                               kEvalUsers, kEvalSeconds,
                                               kIntensity, /*contexts=*/false)),
      "featurize eval");
  std::vector<sensors::Frame> live;
  for (LabeledFrames& bout : UserStream(base, args.seed * 13 + 5, kIntensity,
                                        kLiveBouts, kLiveWindowsPerBout,
                                        window)) {
    live.insert(live.end(), bout.frames.begin(), bout.frames.end());
  }
  const size_t period = live.size() / window;
  std::vector<std::vector<sensors::Frame>> captures;
  std::vector<std::string> names;
  for (size_t m = 0; m < kNewClasses; ++m) {
    const auto& [id, model] = *std::next(fresh.begin(), m);
    sensors::UserProfile user(args.seed * 13 + 6 + m, kIntensity);
    sensors::SyntheticGenerator gen(args.seed * 13 + 8 + m);
    captures.push_back(
        ToFrames(gen.Generate(user.Personalize(model), kCaptureSeconds)));
    std::string name = "v";
    name += std::to_string(id);
    names.push_back(name);
  }

  const double accuracy_base_pre = Accuracy(&runtime->model(), eval_old);
  report->Note("accuracy_base_pre", accuracy_base_pre);

  obs::Registry::Global().ResetAll();
  Samples window_us;
  Samples learn_s;
  Samples commit_ms;
  size_t live_pos = 0;  // next live frame; window-aligned after every reset
  size_t served = 0;
  double streaming_s = 0.0;
  for (size_t m = 0; m < kNewClasses; ++m) {
    // The model that serves the live stream while this update runs; its
    // serial replay of every live window is the reference.
    std::vector<core::Prediction> reference(period);
    for (size_t w = 0; w < period; ++w) {
      reference[w] = Take(runtime->model().InferWindow(
                              WindowAt(live, w * window, window)),
                          "replay InferWindow")
                         .prediction;
    }
    Require(runtime->StartRecording(), "start recording");
    for (const sensors::Frame& frame : captures[m]) {
      Require(runtime->PushFrame(frame).status(), "capture frame");
    }
    const auto capture_end = Clock::now();
    Require(runtime->FinishRecordingAndLearnAsync(names[m]), "learn async");
    live_pos = 0;  // StartRecording emptied the stream buffer
    size_t mismatches = 0;
    while (!runtime->UpdateReady()) {
      const size_t w = (live_pos / window) % period;
      const sensors::Frame& frame = live[live_pos % live.size()];
      ++live_pos;
      const auto t0 = Clock::now();
      auto result = runtime->PushFrame(frame);
      const double us = MicrosSince(t0);
      if (!result.ok()) {
        ++report->attempted;
        ++report->failed;
        continue;
      }
      if (!result.value().has_value()) continue;
      ++report->attempted;
      ++served;
      window_us.Add(us);
      if (!SamePrediction(result.value()->prediction, reference[w])) {
        ++mismatches;
      }
    }
    const auto commit_t0 = Clock::now();
    auto committed = runtime->CommitUpdate();
    commit_ms.Add(MicrosSince(commit_t0) / 1000.0);
    learn_s.Add(SecondsSince(capture_end));
    streaming_s += std::chrono::duration<double>(commit_t0 - capture_end)
                       .count();
    ++report->attempted;
    report->Check(committed.ok(), "update " + names[m] + " commits");
    report->failed += committed.ok() ? mismatches : mismatches + 1;
    report->Check(mismatches == 0,
                  "windows served during an update equal InferWindow replay");

    // The committed state survives save -> load -> save byte for byte, and
    // the registry holds the new class.
    const std::string saved = runtime->ToBundle().SerializeToString();
    auto loaded = core::ModelBundle::FromString(saved);
    const bool stable =
        loaded.ok() && loaded.value().SerializeToString() == saved;
    const bool registered = runtime->model().registry().IdOf(names[m]).ok();
    ++report->attempted;
    report->failed += stable && registered ? 0 : 1;
    report->Check(stable, "bundle byte-stable across save-load-save");
    report->Check(registered, "registry holds " + names[m]);
  }
  const obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();

  const double accuracy_old = Accuracy(&runtime->model(), eval_old);
  const double accuracy_new = Accuracy(&runtime->model(), eval_new);
  const double accuracy_all =
      (accuracy_old * static_cast<double>(eval_old.size()) +
       accuracy_new * static_cast<double>(eval_new.size())) /
      static_cast<double>(eval_old.size() + eval_new.size());
  report->Note("accuracy_old", accuracy_old);
  report->Note("accuracy_new", accuracy_new);
  report->Note("learn_s.mean", learn_s.Mean());
  report->Note("learn_s.samples", static_cast<double>(learn_s.count()));
  report->Note("latency.samples", static_cast<double>(window_us.count()));
  report->Note("setup.samples", static_cast<double>(setup_s.count()));

  if (!args.trace) {
    report->Metric("setup_s", setup_s.Median(), "s");
    report->Metric("latency_p50_us", window_us.Median(), "us");
    report->Metric("latency_p90_us", window_us.Quantile(0.9), "us");
    report->Metric("throughput_per_s",
                   static_cast<double>(served) / streaming_s, "1/s");
    report->Metric("accuracy", accuracy_all, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  report->Metric("e2e.latency_p99_us", window_us.P99(), "us");
  report->Metric("learn.update_s", learn_s.Mean(), "s");
  report->Metric("learn.commit_ms", commit_ms.Median(), "ms");
  report->Metric("learn.accuracy_base_pre", accuracy_base_pre, "ratio");
  report->Metric("learn.accuracy_old", accuracy_old, "ratio");
  report->Metric("learn.accuracy_new", accuracy_new, "ratio");
  const std::pair<const char*, const char*> histograms[] = {
      {"learn.update_ms", "learner.update_ms"},
      {"learn.preprocess_ms", "learner.preprocess_ms"},
      {"learn.train_ms", "learner.train_ms"},
      {"learn.support_ms", "learner.support_ms"},
      {"learn.epoch_ms", "train.epoch_ms"},
      {"learn.forward_backward_ms", "train.forward_backward_ms"},
      {"learn.distill_ms", "train.distill_ms"},
      {"learn.optimizer_ms", "train.optimizer_ms"},
      {"learn.sample_ms", "train.sample_ms"},
  };
  for (const auto& [metric, histogram] : histograms) {
    report->Metric(metric, HistogramMean(snap, histogram), "ms");
  }
  const auto* steps = snap.FindCounter("train.steps");
  report->Metric("learn.steps",
                 steps != nullptr ? static_cast<double>(steps->value) : 0.0,
                 "count");

  // Layer probes on the committed model, outside the measured phase.
  core::EdgeModel& model = runtime->model();
  Samples snapshot_ms, rebuild_ms, capture_ms;
  for (size_t i = 0; i < 3; ++i) {
    auto t0 = Clock::now();
    core::EdgeModel::Snapshot snapshot = model.TakeSnapshot();
    snapshot_ms.Add(MicrosSince(t0) / 1000.0);
    core::EdgeModel clone = model.Clone();
    t0 = Clock::now();
    Require(clone.RebuildPrototypes(runtime->support()), "rebuild");
    rebuild_ms.Add(MicrosSince(t0) / 1000.0);
    sensors::Recording capture;
    capture.samples.Reset(captures[0].size(), sensors::kNumChannels);
    for (size_t r = 0; r < captures[0].size(); ++r) {
      for (size_t c = 0; c < sensors::kNumChannels; ++c) {
        capture.samples.At(r, c) = captures[0][r][c];
      }
    }
    t0 = Clock::now();
    Take(pipeline.Process(capture), "process capture");
    capture_ms.Add(MicrosSince(t0) / 1000.0);
  }
  report->Metric("core.snapshot_ms", snapshot_ms.Median(), "ms");
  report->Metric("core.rebuild_prototypes_ms", rebuild_ms.Median(), "ms");
  report->Metric("preprocess.capture_ms", capture_ms.Median(), "ms");
}

}  // namespace magneto::perfbench
