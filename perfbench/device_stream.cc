// device_stream: the path a phone runs. One EdgeRuntime on the fp32 paper
// backbone over the five base activities, smoothing + drift monitoring +
// journal on, fed raw 22-channel frames from personalised users one at a
// time through PushFrame (closed loop, one caller thread).

#include <memory>

#include "bench.h"

namespace magneto::perfbench {
namespace {

constexpr size_t kSetups = 3;  // setup_s is the median of these
// The pre-trained deployment is part of the workload's definition; --seed
// draws the streamed users.
constexpr uint64_t kDeploymentSeed = 1;
constexpr size_t kCorpusUsers = 4;     // pre-training population
constexpr double kCorpusSeconds = 8.0;
constexpr size_t kPretrainEpochs = 10;
constexpr size_t kStreamUsers = 4;     // users whose frames are streamed
constexpr size_t kBoutsPerUser = 6;
constexpr size_t kWindowsPerBout = 10;
constexpr size_t kReplayCycles = 3;    // traced decomposition passes
constexpr double kUserIntensity = 0.5;  // person-to-person variation
constexpr double kMaxWindowsPerSecond = 20000.0;  // output log reservation

core::PredictionSmoother::Options SmootherOptions() {
  core::PredictionSmoother::Options options;
  options.window = 5;
  return options;
}

std::unique_ptr<core::EdgeRuntime> BootRuntime(uint64_t seed) {
  const sensors::ActivityLibrary library = sensors::DefaultActivityLibrary();
  core::CloudInitializer cloud(PaperConfig(seed, kPretrainEpochs));
  core::ModelBundle bundle = Take(
      cloud.Initialize(PopulationCorpus(library, seed, kCorpusUsers,
                                        kCorpusSeconds, kUserIntensity,
                                        /*contexts=*/true),
                       sensors::ActivityRegistry::BaseActivities()),
      "pretrain");
  core::SupportSet support = std::move(bundle.support);
  auto runtime = std::make_unique<core::EdgeRuntime>(
      std::move(bundle).ToEdgeModel(), std::move(support),
      core::IncrementalOptions{});
  runtime->EnableSmoothing(SmootherOptions());
  runtime->EnableDriftMonitoring(core::DriftMonitor::Options{});
  runtime->EnableJournal();
  return runtime;
}

/// Per-layer timings of the traced replay, one sample per window.
struct LayerSamples {
  Samples copy, denoise, featurize, normalize, window, classify, post;
  std::vector<Samples> layers;
  Samples forward, traced_total;
};

}  // namespace

void RunDeviceStream(const Args& args, Report* report) {
  SetParallelThreads(kSetupThreads);
  Samples setup_s;
  std::unique_ptr<core::EdgeRuntime> runtime;
  for (size_t i = 0; i < kSetups; ++i) {
    runtime.reset();
    const auto t0 = Clock::now();
    runtime = BootRuntime(kDeploymentSeed);
    setup_s.Add(SecondsSince(t0));
  }

  // Inputs: every user's window-aligned activity bouts, concatenated. The
  // stream cycles over them for the whole measured phase.
  const size_t window = runtime->model().pipeline().config().segmentation
                            .window_samples;
  std::vector<sensors::Frame> frames;
  std::vector<sensors::ActivityId> labels;  // per window
  for (size_t u = 0; u < kStreamUsers; ++u) {
    for (LabeledFrames& bout :
         UserStream(sensors::DefaultActivityLibrary(), args.seed * 1000 + u,
                    kUserIntensity, kBoutsPerUser, kWindowsPerBout, window)) {
      frames.insert(frames.end(), bout.frames.begin(), bout.frames.end());
      labels.insert(labels.end(), kWindowsPerBout, bout.label);
    }
  }
  const size_t period = labels.size();

  // Measured phase: closed loop, one thread, tracing off.
  SetParallelThreads(1);
  Samples window_us;
  // Reserved up front (and compact) so the output log's growth does not
  // show in peak_rss_mb.
  std::vector<core::Prediction> outputs;
  outputs.reserve(static_cast<size_t>(args.seconds * kMaxWindowsPerSecond));
  size_t next = 0;
  const auto stream_t0 = Clock::now();
  double wall = 0.0;
  while (true) {
    const sensors::Frame& frame = frames[next];
    next = (next + 1) % frames.size();
    const auto t0 = Clock::now();
    auto result = runtime->PushFrame(frame);
    const double us = MicrosSince(t0);
    if (result.ok() && !result.value().has_value()) continue;
    ++report->attempted;
    if (result.ok()) {
      window_us.Add(us);
      outputs.push_back(result.value()->prediction);
    } else {
      outputs.emplace_back();  // fails the replay check below
    }
    wall = SecondsSince(stream_t0);
    if (wall >= args.seconds) break;
  }

  // Correctness: every streamed label must equal a serial InferWindow replay
  // of the same window, passed through a fresh smoother of the same config.
  core::EdgeModel& model = runtime->model();
  std::vector<core::NamedPrediction> raw(period);
  for (size_t w = 0; w < period; ++w) {
    raw[w] = Take(model.InferWindow(WindowAt(frames, w * window, window)),
                  "replay InferWindow");
  }
  core::PredictionSmoother smoother(SmootherOptions());
  size_t mismatches = 0;
  size_t correct_raw = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    const core::NamedPrediction expected = smoother.Push(raw[i % period]);
    if (!SamePrediction(expected.prediction, outputs[i])) {
      ++mismatches;
    }
    correct_raw += raw[i % period].prediction.activity == labels[i % period];
  }
  report->failed += mismatches;
  report->Check(mismatches == 0, "PushFrame labels equal InferWindow replay");
  const double accuracy =
      outputs.empty() ? 0.0
                      : static_cast<double>(correct_raw) /
                            static_cast<double>(outputs.size());
  report->Note("stream.windows", static_cast<double>(outputs.size()));
  report->Note("stream.mismatches", static_cast<double>(mismatches));
  report->Note("setup.samples", static_cast<double>(setup_s.count()));

  if (!args.trace) {
    report->Metric("setup_s", setup_s.Median(), "s");
    report->Metric("latency_p50_us", window_us.Median(), "us");
    report->Metric("latency_p90_us", window_us.Quantile(0.9), "us");
    report->Metric("throughput_per_s",
                   static_cast<double>(outputs.size()) / wall, "1/s");
    report->Metric("accuracy", accuracy, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Note("latency.samples", static_cast<double>(window_us.count()));
    return;
  }

  // Traced run: replay each window through the decomposed public calls,
  // timing every layer from outside.
  const preprocess::Pipeline& pipeline = model.pipeline();
  const nn::Sequential& backbone = model.backbone();
  const core::NcmClassifier& classifier = model.classifier();
  preprocess::FeatureExtractor extractor;
  core::NcmClassifier::Scratch scratch;
  nn::ForwardWorkspace ws;
  core::PredictionSmoother trace_smoother(SmootherOptions());
  core::DriftMonitor drift(core::DriftMonitor::Options{});
  core::ActivityJournal journal;
  LayerSamples s;
  s.layers.resize(backbone.num_layers());
  std::vector<Matrix> acts(backbone.num_layers() + 1);
  size_t decomposed_mismatches = 0;
  uint64_t forward_allocs = 0;
  // Untraced PushFrame blocks interleave with the traced replay blocks, so
  // the overhead and residual compare figures taken under the same host
  // conditions.
  Samples interleaved_us;
  for (size_t cycle = 0; cycle < kReplayCycles; ++cycle) {
    for (size_t pushed = 0; pushed < period * window; ++pushed) {
      const sensors::Frame& frame = frames[next];
      next = (next + 1) % frames.size();
      const auto t0 = Clock::now();
      auto result = runtime->PushFrame(frame);
      const double us = MicrosSince(t0);
      if (result.ok() && result.value().has_value()) interleaved_us.Add(us);
    }
    for (size_t w = 0; w < period; ++w) {
      const auto t_start = Clock::now();
      auto t0 = t_start;
      Matrix win = WindowAt(frames, w * window, window);
      s.copy.Add(MicrosSince(t0));
      t0 = Clock::now();
      Matrix denoised =
          Take(preprocess::Denoise(win, pipeline.config().denoise), "denoise");
      s.denoise.Add(MicrosSince(t0));
      t0 = Clock::now();
      std::vector<float> features = Take(extractor.Extract(denoised), "extract");
      s.featurize.Add(MicrosSince(t0));
      t0 = Clock::now();
      Require(pipeline.normalizer().Apply(&features), "normalize");
      s.normalize.Add(MicrosSince(t0));
      acts[0] = Matrix(1, features.size());
      std::copy(features.begin(), features.end(), acts[0].RowPtr(0));
      for (size_t l = 0; l < backbone.num_layers(); ++l) {
        t0 = Clock::now();
        backbone.layer(l).Forward(acts[l], /*training=*/false, nullptr,
                                  &acts[l + 1]);
        s.layers[l].Add(MicrosSince(t0));
      }
      const Matrix& emb = acts.back();
      t0 = Clock::now();
      core::Prediction pred = Take(
          classifier.Classify(emb.RowPtr(0), emb.cols(), &scratch), "classify");
      core::NamedPrediction named{
          pred, Take(model.registry().NameOf(pred.activity), "name")};
      s.classify.Add(MicrosSince(t0));
      t0 = Clock::now();
      core::NamedPrediction smoothed = trace_smoother.Push(named);
      drift.Observe(smoothed.prediction);
      journal.Record(smoothed);
      s.post.Add(MicrosSince(t0));
      s.traced_total.Add(MicrosSince(t_start));

      if (!SamePrediction(named.prediction, raw[w].prediction)) {
        ++decomposed_mismatches;
      }
      // The first pass starts from a fresh smoother, like the stream did.
      if (cycle == 0 && w < outputs.size() &&
          !SamePrediction(smoothed.prediction, outputs[w])) {
        ++decomposed_mismatches;
      }

      // Whole-stage references, outside the decomposed total.
      t0 = Clock::now();
      std::vector<float> whole = Take(pipeline.ProcessWindow(win), "window");
      s.window.Add(MicrosSince(t0));
      const uint64_t allocs0 = AllocCount();
      t0 = Clock::now();
      const Matrix& fwd = backbone.Forward(acts[0], &ws);
      s.forward.Add(MicrosSince(t0));
      forward_allocs = AllocCount() - allocs0;
      if (whole != features || fwd.cols() != emb.cols()) {
        ++decomposed_mismatches;
      }
    }
  }
  report->failed += decomposed_mismatches;
  report->Check(decomposed_mismatches == 0,
                "decomposed replay equals PushFrame predictions");

  double layer_sum = s.denoise.Median() + s.featurize.Median() +
                     s.normalize.Median() + s.classify.Median() +
                     s.post.Median();
  double layer_mean_sum = s.copy.Mean() + s.denoise.Mean() +
                          s.featurize.Mean() + s.normalize.Mean() +
                          s.classify.Mean() + s.post.Mean();
  for (size_t l = 0; l < s.layers.size() && l < kBackboneLayers; ++l) {
    report->Metric(Fp32LayerMetric(l), s.layers[l].Median(), "us");
    layer_sum += s.layers[l].Median();
    layer_mean_sum += s.layers[l].Mean();
  }
  const double calls = static_cast<double>(s.traced_total.count());
  report->Metric("preprocess.denoise_us", s.denoise.Median(), "us");
  report->Metric("preprocess.featurize_us", s.featurize.Median(), "us");
  report->Metric("preprocess.normalize_us", s.normalize.Median(), "us");
  report->Metric("preprocess.window_us", s.window.Median(), "us");
  report->Metric("preprocess.window_calls", calls, "count");
  report->Metric("nn.fp32.forward_b1_us", s.forward.Median(), "us");
  report->Metric("nn.fp32.forward_calls", calls, "count");
  report->Metric("nn.fp32.forward_allocs", static_cast<double>(forward_allocs),
                 "count");
  report->Metric("core.ncm5_fp32_us", s.classify.Median(), "us");
  report->Metric("core.classify_calls", calls, "count");
  report->Metric("core.postprocess_us", s.post.Median(), "us");
  report->Metric("core.runtime_residual_us",
                 interleaved_us.Median() - layer_sum, "us");
  report->Metric("e2e.latency_p99_us", window_us.P99(), "us");
  report->Metric("trace.coverage", layer_mean_sum / s.traced_total.Mean(),
                 "ratio");
  report->Metric("trace.overhead",
                 s.traced_total.Median() / interleaved_us.Median(), "ratio");
}

}  // namespace magneto::perfbench
