// gateway_int8_vocab: one EdgeFleet serving 64 sessions from the int8 wire-v3
// bundle of the paper backbone over a 500-class procedural vocabulary, exact
// int8 NCM scans, micro-batches of up to 8. Windows are featurized during
// set-up; one generator thread submits them as an open loop with Poisson
// arrivals at a fixed ladder of absolute rates; saturation bursts, each
// admitted at once, run between the light rung's repetitions and measure
// drain throughput.

#include <sched.h>

#include <memory>
#include <thread>

#include "bench.h"

namespace magneto::perfbench {
namespace {

constexpr size_t kSetups = 3;
constexpr size_t kVocabulary = 500;
// The vocabulary and the deployed bundle are part of the workload's
// definition; --seed draws the sessions' users and the arrival times.
constexpr uint64_t kVocabularySeed = 2024;
constexpr uint64_t kDeploymentSeed = 1;
constexpr size_t kPretrainClasses = 50;  // vocabulary slice the backbone saw
constexpr size_t kPretrainUsers = 2;
constexpr double kPretrainSeconds = 4.0;
constexpr size_t kPretrainEpochs = 5;
constexpr double kSupportSeconds = 3.0;  // per class -> 3 support windows
constexpr double kEvalSeconds = 2.0;   // per class -> 2 evaluation windows
constexpr size_t kSessions = 64;
constexpr size_t kWindowsPerSession = 16;
constexpr size_t kServeThreads = 2;
constexpr size_t kMaxBatch = 8;

// Offered rates in windows/s, fixed once from the drain throughput the
// saturation bursts measure on a 4-core host (13000 to 14500 windows/s) and
// never recalibrated per run: a light rung (~9%), repeated kLightReps times,
// then the loaded rung (~40%) and the rungs above it.
constexpr double kLightRate = 1200.0;
constexpr size_t kLightReps = 8;
constexpr size_t kLightMaxReps = 12;
constexpr double kLadder[] = {5500.0, 8000.0, 10000.0, 12500.0};
constexpr size_t kLoadedRung = 0;
// Shares of --seconds per light repetition, per ladder rung and for all
// saturation bursts together.
constexpr double kLightShare = 0.05;
constexpr double kRungShare = 0.06;
constexpr double kBurstShare = 0.2;
constexpr size_t kBurstWindows = 8000;

// The paper's "few milliseconds": a rung qualifies when its p99 meets this.
constexpr double kLatencyLimitUs = 10000.0;
// A rung whose generator ran later than this at p99 measured the generator,
// not the fleet, and is marked invalid.
constexpr double kLatenessLimitUs = 500.0;

struct Deployment {
  std::string wire_bytes;  // the int8 wire-v3 bundle
  std::unique_ptr<platform::EdgeFleet> fleet;
  std::unique_ptr<obs::FlightRecorder> recorder;
  // Pool: per session, its windows' raw frames and features.
  std::vector<std::vector<std::vector<sensors::Frame>>> raw;
  std::vector<std::vector<std::vector<float>>> features;
};

sensors::LargeVocabularyOptions Vocabulary() {
  sensors::LargeVocabularyOptions vocab;
  vocab.num_classes = kVocabulary;
  vocab.overlap = 0.25;
  vocab.seed = kVocabularySeed;
  return vocab;
}

/// Arrivals one rung can offer, with ample Poisson headroom: the flight
/// recorder is cleared before every rung and must hold all of its records.
size_t RungCapacity(double seconds) {
  const double mean = std::max(kLightRate * seconds * kLightShare,
                               kLadder[std::size(kLadder) - 1] * seconds *
                                   kRungShare);
  return std::max(static_cast<size_t>(mean * 1.5) + 1024, kBurstWindows);
}

/// Restricts the calling thread to CPU 0 (`generator` true) or to every
/// other CPU. Threads inherit the mask of the thread that creates them, so
/// the fleet's serve threads are created under the second mask and the
/// generator then takes CPU 0 for itself: a woken serve thread never lands
/// on the spinning generator's core and delays its schedule.
void ReserveGeneratorCore(bool generator) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (generator) {
    CPU_SET(0, &set);
  } else {
    for (int c = 1; c < cpus; ++c) CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

/// Lets the calling thread run on every CPU again.
void ReleaseCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  for (int c = 0; c < cpus; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

Deployment Deploy(uint64_t seed, double seconds) {
  const sensors::ActivityLibrary library =
      sensors::LargeVocabularyLibrary(Vocabulary());
  const sensors::ActivityLibrary base = Slice(library, 0, kPretrainClasses);

  // Cloud: pre-train on a slice of the vocabulary, then fit every class's
  // support exemplars and prototypes through that backbone.
  const core::CloudConfig config = PaperConfig(kDeploymentSeed, kPretrainEpochs);
  core::CloudInitializer cloud(config);
  core::ModelBundle pretrained = Take(
      cloud.Initialize(
          PopulationCorpus(base, kDeploymentSeed, kPretrainUsers,
                           kPretrainSeconds,
                           /*intensity=*/0.0, /*contexts=*/false),
          VocabularyRegistry(base)),
      "pretrain");
  core::EdgeModel model = std::move(pretrained).ToEdgeModel();
  sensors::SyntheticGenerator support_gen(kDeploymentSeed * 7 + 5);
  const sensors::FeatureDataset support_data = Take(
      model.pipeline().ProcessLabeled(support_gen.GenerateVocabularyDataset(
          Vocabulary(), 1, kSupportSeconds)),
      "featurize support");
  core::SupportSet support(config.support_capacity, config.selection);
  Rng rng(kDeploymentSeed * 7 + 6);
  for (const auto& [id, count] : support_data.ClassCounts()) {
    Require(support.SetClass(id, support_data.FilterByClass(id), &model, &rng),
            "support set");
  }
  Require(model.RebuildPrototypes(support), "prototypes");
  core::ModelBundle bundle;
  bundle.pipeline = model.pipeline();
  bundle.backbone = std::move(model.backbone());
  bundle.classifier = model.classifier();
  bundle.registry = VocabularyRegistry(library);
  bundle.support = std::move(support);
  platform::CloudServer server(config);
  Require(server.AdoptBundle(std::move(bundle)), "adopt bundle");

  Deployment d;
  d.wire_bytes = Take(server.ServeQuantizedBundleBytes(), "int8 bundle");
  core::ModelBundle deployed =
      Take(core::ModelBundle::FromString(d.wire_bytes), "load int8 bundle");

  // Pool: each session is a personalised user moving through vocabulary
  // classes one window at a time.
  const size_t window =
      deployed.pipeline.config().segmentation.window_samples;
  d.raw.resize(kSessions);
  d.features.resize(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    for (LabeledFrames& bout :
         UserStream(library, seed * 1000 + s, /*intensity=*/0.0,
                    kWindowsPerSession, 1, window)) {
      d.features[s].push_back(Take(
          deployed.pipeline.ProcessWindow(WindowAt(bout.frames, 0, window)),
          "featurize window"));
      d.raw[s].push_back(std::move(bout.frames));
    }
  }

  d.recorder = std::make_unique<obs::FlightRecorder>(RungCapacity(seconds));
  platform::FleetOptions options;
  options.max_batch = kMaxBatch;
  options.max_concurrent_batches = kServeThreads;
  options.serve_threads = kServeThreads;
  // Never shed: an overloaded rung shows as latency and backlog instead.
  options.admission_capacity = RungCapacity(seconds);
  options.flight_recorder = d.recorder.get();
  ReserveGeneratorCore(false);
  d.fleet = Take(platform::EdgeFleet::Create(std::move(deployed), kSessions,
                                             options),
                 "create fleet");
  ReleaseCores();
  return d;
}

uint64_t ToNs(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

struct RungResult {
  double rate = 0.0;
  size_t arrivals = 0;
  size_t shed = 0;
  size_t errors = 0;
  Samples latency_us;  // scheduled arrival -> publish
  Samples late_us;     // actual submit - scheduled arrival
  double drain_us = 0.0;
  double mean_batch = 0.0;
  bool valid = true;
  bool qualifies = false;
  std::vector<obs::FlightRecord> records;
};

/// Offers `rate` windows/s for `seconds` (rate 0 = the whole burst at once)
/// and matches the flight records to arrivals by request-id order.
RungResult RunRung(Deployment* d, double rate, double seconds, size_t burst,
                   Rng* rng) {
  RungResult r;
  r.rate = rate;
  d->recorder->Clear();
  std::vector<uint64_t> scheduled;
  const auto t0 = Clock::now();
  auto due = t0;
  size_t i = 0;
  while (true) {
    if (rate > 0.0) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log(1.0 - rng->Uniform()) /
                                        rate));
      if (due - t0 >= std::chrono::duration<double>(seconds)) break;
      while (Clock::now() < due) {
      }
    } else if (i >= burst) {
      break;
    } else {
      due = Clock::now();
    }
    const size_t session = i % kSessions;
    const auto& pool = d->features[session];
    const bool admitted = d->fleet->SubmitWindow(
        session, pool[(i / kSessions) % pool.size()]);
    r.late_us.Add(MicrosSince(due));
    scheduled.push_back(ToNs(rate > 0.0 ? due : t0));
    r.shed += admitted ? 0 : 1;
    ++i;
  }
  const auto last = Clock::now();
  d->fleet->DrainSubmitted();
  r.drain_us = MicrosSince(last);
  r.arrivals = scheduled.size();
  r.records = d->recorder->Snapshot();
  if (r.records.size() != r.arrivals) {
    r.valid = false;
    r.errors = r.arrivals;
    return r;
  }
  double batch_sum = 0.0;
  for (size_t k = 0; k < r.records.size(); ++k) {
    const obs::FlightRecord& rec = r.records[k];
    if (rec.outcome != obs::FlightRecord::Outcome::kOk) {
      r.errors += rec.outcome == obs::FlightRecord::Outcome::kError ? 1 : 0;
      continue;
    }
    const uint64_t publish =
        rec.stage_ns[static_cast<size_t>(obs::RequestStage::kPublish)];
    r.latency_us.Add(static_cast<double>(publish - scheduled[k]) / 1000.0);
    batch_sum += rec.batch_size;
  }
  r.mean_batch = r.latency_us.count() > 0
                     ? batch_sum / static_cast<double>(r.latency_us.count())
                     : 0.0;
  r.valid = r.late_us.P99() <= kLatenessLimitUs;
  r.qualifies = r.valid && r.shed == 0 && r.errors == 0 &&
                r.latency_us.P99() <= kLatencyLimitUs &&
                r.drain_us <= kLatencyLimitUs;
  return r;
}

void NoteRung(const std::string& key, const RungResult& r, Report* report) {
  report->Note(key + "rate", r.rate);
  report->Note(key + "arrivals", static_cast<double>(r.arrivals));
  report->Note(key + "shed", static_cast<double>(r.shed));
  report->Note(key + "p50_us", r.latency_us.Median());
  report->Note(key + "p99_us", r.latency_us.P99());
  report->Note(key + "samples", static_cast<double>(r.latency_us.count()));
  report->Note(key + "late_p99_us", r.late_us.P99());
  report->Note(key + "drain_us", r.drain_us);
  report->Note(key + "mean_batch", r.mean_batch);
  report->Note(key + "valid", r.valid ? "yes" : "no");
}

/// Median and p99 of one serving stage over a rung's published records.
void StageMetrics(const std::vector<obs::FlightRecord>& records,
                  obs::RequestStage from, obs::RequestStage to,
                  const std::string& name, Report* report) {
  Samples s;
  for (const obs::FlightRecord& rec : records) {
    if (rec.outcome == obs::FlightRecord::Outcome::kOk) {
      s.Add(rec.StageUs(from, to));
    }
  }
  report->Metric("fleet." + name + "_us", s.Median(), "us");
  report->Metric("fleet." + name + "_p99_us", s.P99(), "us");
}

/// Layer probes on the deployed int8 model (traced run only).
void ProbeLayers(const Deployment& d, Report* report) {
  core::ModelBundle bundle =
      Take(core::ModelBundle::FromString(d.wire_bytes), "load int8 bundle");
  const nn::Sequential& backbone = bundle.backbone;
  const core::NcmClassifier& classifier = bundle.classifier;
  std::vector<const std::vector<float>*> rows;
  for (const auto& session : d.features) {
    for (const auto& f : session) rows.push_back(&f);
  }
  const size_t dim = rows[0]->size();
  nn::ForwardWorkspace ws;
  core::NcmClassifier::Scratch scratch;
  Samples b1, b8, ncm;
  std::vector<Samples> layers(backbone.num_layers());
  std::vector<Matrix> acts(backbone.num_layers() + 1);
  uint64_t allocs_b1 = 0;
  uint64_t allocs_b8 = 0;
  Matrix x1(1, dim);
  Matrix x8(kMaxBatch, dim);
  for (size_t i = 0; i + kMaxBatch <= rows.size(); i += kMaxBatch) {
    std::copy(rows[i]->begin(), rows[i]->end(), x1.RowPtr(0));
    uint64_t a0 = AllocCount();
    auto t0 = Clock::now();
    const Matrix& e1 = backbone.Forward(x1, &ws);
    b1.Add(MicrosSince(t0));
    allocs_b1 = AllocCount() - a0;
    t0 = Clock::now();
    Take(classifier.Classify(e1.RowPtr(0), e1.cols(), &scratch), "classify");
    ncm.Add(MicrosSince(t0));

    for (size_t b = 0; b < kMaxBatch; ++b) {
      std::copy(rows[i + b]->begin(), rows[i + b]->end(), x8.RowPtr(b));
    }
    a0 = AllocCount();
    t0 = Clock::now();
    backbone.Forward(x8, &ws);
    b8.Add(MicrosSince(t0));
    allocs_b8 = AllocCount() - a0;
    acts[0] = x8;
    for (size_t l = 0; l < backbone.num_layers(); ++l) {
      t0 = Clock::now();
      backbone.layer(l).Forward(acts[l], /*training=*/false, nullptr,
                                &acts[l + 1]);
      layers[l].Add(MicrosSince(t0));
    }
  }
  for (size_t l = 0; l < layers.size() && l < kBackboneLayers; ++l) {
    report->Metric(Int8LayerMetric(l), layers[l].Median(), "us");
  }
  report->Metric("nn.int8.forward_b1_us", b1.Median(), "us");
  report->Metric("nn.int8.forward_b8_us", b8.Median(), "us");
  report->Metric("nn.int8.forward_calls",
                 static_cast<double>(b1.count() + b8.count()), "count");
  report->Metric("nn.int8.forward_allocs_b1", static_cast<double>(allocs_b1),
                 "count");
  report->Metric("nn.int8.forward_allocs_b8", static_cast<double>(allocs_b8),
                 "count");
  report->Metric("core.ncm500_int8_us", ncm.Median(), "us");
  report->Metric("core.classify_calls", static_cast<double>(ncm.count()),
                 "count");
}

}  // namespace

void RunGateway(const Args& args, Report* report) {
  SetParallelThreads(kSetupThreads);
  Samples setup_s;
  Deployment d;
  for (size_t i = 0; i < kSetups; ++i) {
    d = Deployment{};
    const auto t0 = Clock::now();
    d = Deploy(args.seed, args.seconds);
    setup_s.Add(SecondsSince(t0));
  }
  SetParallelThreads(1);  // the serve threads are the only serving concurrency

  // Light rung (repeated; its tail is the median of the repetitions' tails,
  // so one host stall cannot decide it) with saturation bursts between the
  // repetitions, then the ladder above it. Interleaving spreads both the
  // light latency and the capacity over the whole run, so a drift in the
  // host's speed weighs on them alike.
  Rng rng(args.seed * 7 + 9);
  auto keepers = std::make_unique<IdleKeepers>();
  ReserveGeneratorCore(true);
  Samples light_latency;
  Samples light_p90;
  Samples light_p99;
  bool light_qualifies = true;
  double max_rate = 0.0;
  double gen_late = 0.0;  // worst reported rung's generator lateness p99
  // Warm-up at the light rate (caches, lazily grown buffers); not reported.
  RungResult warm =
      RunRung(&d, kLightRate, args.seconds * kLightShare / 2, 0, &rng);
  report->attempted += warm.arrivals;
  report->failed += warm.shed + warm.errors;
  // Light repetitions run until kLightReps of them kept to schedule (or
  // kLightMaxReps ran); the kLightReps least-late ones are reported. After
  // each, bursts admitted at once run until they have taken their share of
  // the time so far; capacity is the windows they served over their total
  // drain time, so every burst weighs by its length.
  std::vector<RungResult> light;
  size_t light_valid = 0;
  size_t bursts = 0;
  size_t burst_served = 0;
  double burst_s = 0.0;
  while (light_valid < kLightReps && light.size() < kLightMaxReps) {
    light.push_back(
        RunRung(&d, kLightRate, args.seconds * kLightShare, 0, &rng));
    const RungResult& r = light.back();
    NoteRung("light." + std::to_string(light.size() - 1) + ".", r, report);
    report->attempted += r.arrivals;
    report->failed += r.shed + r.errors;
    light_valid += r.valid ? 1 : 0;
    light.back().records.clear();
    const double burst_budget_s =
        args.seconds * kBurstShare *
        static_cast<double>(std::min(light.size(), kLightReps)) /
        static_cast<double>(kLightReps);
    do {
      const auto burst_t0 = Clock::now();
      RungResult burst = RunRung(&d, 0.0, 0.0, kBurstWindows, &rng);
      burst_s += SecondsSince(burst_t0);
      burst_served += burst.latency_us.count();
      NoteRung("burst." + std::to_string(bursts++) + ".", burst, report);
      report->attempted += burst.arrivals;
      report->failed += burst.shed + burst.errors;
    } while (burst_s < burst_budget_s);
  }
  const double capacity = static_cast<double>(burst_served) / burst_s;
  std::sort(light.begin(), light.end(),
            [](const RungResult& a, const RungResult& b) {
              return a.late_us.P99() < b.late_us.P99();
            });
  light.resize(std::min(light.size(), kLightReps));
  for (const RungResult& r : light) {
    for (double v : r.latency_us.values()) light_latency.Add(v);
    light_p90.Add(r.latency_us.Quantile(0.9));
    light_p99.Add(r.latency_us.P99());
    light_qualifies = light_qualifies && r.qualifies;
    gen_late = std::max(gen_late, r.late_us.P99());
  }
  report->Note("light.valid_repetitions", static_cast<double>(light_valid));
  if (light_qualifies) max_rate = kLightRate;
  // Peak memory through set-up, the light rung with its bursts (each admits
  // the same fixed backlog) and the loaded rung; the overload rungs hold a
  // backlog whose size follows the host's speed.
  double rss_loaded = 0.0;
  std::vector<RungResult> rungs;
  for (double rate : kLadder) {
    rungs.push_back(
        RunRung(&d, rate, args.seconds * kRungShare, 0, &rng));
    NoteRung("rung." + std::to_string(rungs.size() - 1) + ".", rungs.back(),
             report);
    if (rungs.back().qualifies) max_rate = std::max(max_rate, rate);
    if (rungs.size() - 1 == kLoadedRung) {
      rss_loaded = PeakRssMb();
    } else {
      rungs.back().records.clear();  // only the loaded rung's are staged
    }
    gen_late = std::max(gen_late, rungs.back().late_us.P99());
  }
  const RungResult& loaded = rungs[kLoadedRung];
  keepers.reset();
  ReleaseCores();
  for (const RungResult& r : rungs) {
    report->attempted += r.arrivals;
    report->failed += r.shed + r.errors;
  }

  // Correctness: the fleet's closed-loop PushFrame predictions on one window
  // per session equal a serial InferFeatures call on the same wire-v3 model;
  // the serial model also scores the whole pool against ground truth.
  core::ModelBundle reference_bundle =
      Take(core::ModelBundle::FromString(d.wire_bytes), "load int8 bundle");
  core::EdgeModel reference = std::move(reference_bundle).ToEdgeModel();
  size_t mismatches = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    const size_t w = (args.seed + s) % kWindowsPerSession;
    std::optional<core::NamedPrediction> served;
    for (const sensors::Frame& frame : d.raw[s][w]) {
      auto pushed = d.fleet->PushFrame(s, frame);
      if (pushed.ok() && pushed.value().has_value()) served = *pushed.value();
    }
    const core::NamedPrediction expected =
        Take(reference.InferFeatures(d.features[s][w]), "reference");
    ++report->attempted;
    if (!served.has_value() ||
        !SamePrediction(served->prediction, expected.prediction)) {
      ++mismatches;
    }
  }
  report->failed += mismatches;
  report->Check(mismatches == 0, "fleet PushFrame equals serial InferFeatures");

  // Quality: the deployed model on a balanced held-out set, fresh windows of
  // every vocabulary class.
  sensors::SyntheticGenerator eval_gen(args.seed * 7 + 11);
  const sensors::FeatureDataset eval = Take(
      reference.pipeline().ProcessLabeled(
          eval_gen.GenerateVocabularyDataset(Vocabulary(), 1, kEvalSeconds)),
      "featurize eval");
  size_t correct = 0;
  const auto pairs = Take(reference.Predict(eval), "predict");
  for (const auto& [truth, predicted] : pairs) correct += truth == predicted;
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(pairs.size());
  report->Note("setup.samples", static_cast<double>(setup_s.count()));
  report->Note("accuracy.windows", static_cast<double>(pairs.size()));

  if (!args.trace) {
    report->Metric("setup_s", setup_s.Median(), "s");
    report->Metric("latency_p50_us", light_latency.Median(), "us");
    report->Metric("latency_p90_us", light_p90.Median(), "us");
    report->Note("latency.samples", static_cast<double>(light_latency.count()));
    report->Note("latency.repetitions", static_cast<double>(light_p90.count()));
    report->Metric("throughput_per_s", capacity, "1/s");
    report->Metric("accuracy", accuracy, "ratio");
    report->Metric("peak_rss_mb", rss_loaded, "MB");
    return;
  }
  using Stage = obs::RequestStage;
  StageMetrics(loaded.records, Stage::kAdmit, Stage::kDequeue, "queue",
               report);
  StageMetrics(loaded.records, Stage::kDequeue, Stage::kEmbedStart,
               "batch_wait", report);
  StageMetrics(loaded.records, Stage::kEmbedStart, Stage::kEmbedEnd, "embed",
               report);
  StageMetrics(loaded.records, Stage::kEmbedEnd, Stage::kClassifyEnd,
               "classify", report);
  StageMetrics(loaded.records, Stage::kClassifyEnd, Stage::kPublish, "publish",
               report);
  report->Metric("fleet.mean_batch", loaded.mean_batch, "count");
  report->Metric("fleet.requests", static_cast<double>(loaded.records.size()),
                 "count");
  double shed = 0.0;
  for (const RungResult& r : rungs) shed += static_cast<double>(r.shed);
  report->Metric("fleet.shed", shed, "count");
  report->Metric("gen.late_p99_us", gen_late, "us");
  report->Metric("e2e.latency_p99_us", light_p99.Median(), "us");
  report->Metric("gateway.loaded_p99_us", loaded.latency_us.P99(), "us");
  report->Metric("gateway.max_rate_per_s", max_rate, "1/s");
  report->Metric("gateway.capacity_per_s", capacity, "1/s");
  ProbeLayers(d, report);
}

}  // namespace magneto::perfbench
