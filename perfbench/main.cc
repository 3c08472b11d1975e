// MAGNETO repository benchmark.
//
//   magneto_perfbench --workload <device_stream|gateway_int8_vocab|
//                      learn_while_streaming> --seed <n> --seconds <s>
//                     --trace <0|1>
//
// Prints a provenance/detail JSON line, then, as the last line, the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs report the end-to-end metrics; traced runs report every
// per-layer metric (0 for layers the workload leaves idle).

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <new>
#include <thread>

#include "bench.h"

// -- Heap-allocation counter ---------------------------------------------------
//
// Every operator new funnels through one relaxed counter, so a caller can
// count the allocations one call makes by differencing around it.

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, ((size ? size : 1) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace magneto::perfbench {

uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

IdleKeepers::IdleKeepers() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned cpu = 0; cpu < cpus; ++cpu) {
    threads_.emplace_back([this, cpu] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleKeepers::~IdleKeepers() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<sensors::Frame> ToFrames(const sensors::Recording& recording) {
  std::vector<sensors::Frame> frames(recording.num_samples());
  for (size_t i = 0; i < frames.size(); ++i) {
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      frames[i][c] = recording.samples.At(i, c);
    }
  }
  return frames;
}

Matrix WindowAt(const std::vector<sensors::Frame>& frames, size_t start,
                size_t window_samples) {
  Matrix window(window_samples, sensors::kNumChannels);
  for (size_t r = 0; r < window_samples; ++r) {
    for (size_t c = 0; c < sensors::kNumChannels; ++c) {
      window.At(r, c) = frames[start + r][c];
    }
  }
  return window;
}

std::vector<LabeledFrames> UserStream(const sensors::ActivityLibrary& library,
                                      uint64_t seed, double intensity,
                                      size_t bouts, size_t windows_per_bout,
                                      size_t window_samples) {
  Rng rng(seed);
  sensors::UserProfile user(rng.engine()(), intensity);
  sensors::SyntheticGenerator gen(rng.engine()());
  std::vector<sensors::ActivityId> ids;
  for (const auto& [id, model] : library) ids.push_back(id);
  const double seconds = static_cast<double>(windows_per_bout * window_samples) /
                         sensors::kDefaultSampleRateHz;
  std::vector<LabeledFrames> stream;
  for (size_t b = 0; b < bouts; ++b) {
    const sensors::ActivityId id = ids[rng.engine()() % ids.size()];
    LabeledFrames bout;
    bout.label = id;
    bout.frames = ToFrames(gen.Generate(user.Personalize(library.at(id)),
                                        seconds));
    bout.frames.resize(windows_per_bout * window_samples);
    stream.push_back(std::move(bout));
  }
  return stream;
}

std::vector<sensors::LabeledRecording> PopulationCorpus(
    const sensors::ActivityLibrary& library, uint64_t seed, size_t users,
    double seconds, double intensity, bool contexts) {
  std::vector<sensors::LabeledRecording> corpus;
  Rng seeder(seed);
  for (size_t u = 0; u < users; ++u) {
    sensors::UserProfile profile(seeder.engine()(), intensity);
    sensors::SyntheticGenerator gen(seeder.engine()());
    Rng ctx_rng(seeder.engine()());
    for (const auto& [id, model] : library) {
      sensors::SignalModel personal = profile.Personalize(model);
      if (contexts) {
        personal = sensors::RecordingContext::Sample(&ctx_rng).Apply(personal);
      }
      corpus.push_back({gen.Generate(personal, seconds), id});
    }
  }
  return corpus;
}

core::CloudConfig PaperConfig(uint64_t seed, size_t epochs) {
  core::CloudConfig config;
  config.backbone_dims = {1024, 512, 128, 64, 128};
  config.train.epochs = epochs;
  config.train.batch_size = 64;
  config.train.learning_rate = 1e-3;
  config.train.seed = seed * 31 + 7;
  config.support_capacity = 200;
  config.selection = core::SelectionStrategy::kHerding;
  config.seed = seed * 31 + 11;
  return config;
}

sensors::ActivityRegistry VocabularyRegistry(
    const sensors::ActivityLibrary& library) {
  sensors::ActivityRegistry registry;
  for (const auto& [id, model] : library) {
    std::string name = "v";
    name += std::to_string(id);
    Require(registry.RegisterWithId(id, name), "register vocabulary class");
  }
  return registry;
}

sensors::ActivityLibrary Slice(const sensors::ActivityLibrary& library,
                               size_t first, size_t last) {
  sensors::ActivityLibrary out;
  size_t i = 0;
  for (const auto& [id, model] : library) {
    if (i >= first && i < last) out.emplace(id, model);
    ++i;
  }
  return out;
}

std::string Fp32LayerMetric(size_t layer) {
  return "nn.fp32.l" + std::to_string(layer) +
         (layer % 2 == 0 ? "_linear_us" : "_relu_us");
}

std::string Int8LayerMetric(size_t layer) {
  return "nn.int8.l" + std::to_string(layer) +
         (layer % 2 == 0 ? "_qlinear_b8_us" : "_relu_b8_us");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"e2e.latency_p99_us", "us"},
        {"preprocess.denoise_us", "us"},
        {"preprocess.featurize_us", "us"},
        {"preprocess.normalize_us", "us"},
        {"preprocess.window_us", "us"},
        {"preprocess.window_calls", "count"},
        {"preprocess.capture_ms", "ms"},
        {"nn.fp32.forward_b1_us", "us"},
        {"nn.fp32.forward_calls", "count"},
        {"nn.fp32.forward_allocs", "count"},
        {"nn.int8.forward_b1_us", "us"},
        {"nn.int8.forward_b8_us", "us"},
        {"nn.int8.forward_calls", "count"},
        {"nn.int8.forward_allocs_b1", "count"},
        {"nn.int8.forward_allocs_b8", "count"},
        {"core.ncm5_fp32_us", "us"},
        {"core.ncm500_int8_us", "us"},
        {"core.classify_calls", "count"},
        {"core.postprocess_us", "us"},
        {"core.runtime_residual_us", "us"},
        {"core.snapshot_ms", "ms"},
        {"core.rebuild_prototypes_ms", "ms"},
        {"fleet.queue_us", "us"},
        {"fleet.queue_p99_us", "us"},
        {"fleet.batch_wait_us", "us"},
        {"fleet.batch_wait_p99_us", "us"},
        {"fleet.embed_us", "us"},
        {"fleet.embed_p99_us", "us"},
        {"fleet.classify_us", "us"},
        {"fleet.classify_p99_us", "us"},
        {"fleet.publish_us", "us"},
        {"fleet.publish_p99_us", "us"},
        {"fleet.mean_batch", "count"},
        {"fleet.requests", "count"},
        {"fleet.shed", "count"},
        {"gateway.loaded_p99_us", "us"},
        {"gateway.max_rate_per_s", "1/s"},
        {"gateway.capacity_per_s", "1/s"},
        {"gen.late_p99_us", "us"},
        {"learn.update_s", "s"},
        {"learn.update_ms", "ms"},
        {"learn.preprocess_ms", "ms"},
        {"learn.train_ms", "ms"},
        {"learn.support_ms", "ms"},
        {"learn.epoch_ms", "ms"},
        {"learn.forward_backward_ms", "ms"},
        {"learn.distill_ms", "ms"},
        {"learn.optimizer_ms", "ms"},
        {"learn.sample_ms", "ms"},
        {"learn.steps", "count"},
        {"learn.commit_ms", "ms"},
        {"learn.accuracy_base_pre", "ratio"},
        {"learn.accuracy_old", "ratio"},
        {"learn.accuracy_new", "ratio"},
        {"trace.coverage", "ratio"},
        {"trace.overhead", "ratio"},
    };
    for (size_t i = 0; i < kBackboneLayers; ++i) {
      m->push_back({Fp32LayerMetric(i), "us"});
      m->push_back({Int8LayerMetric(i), "us"});
    }
    return m;
  }();
  return *metrics;
}

namespace {

/// CPU brand string, read with cpuid (no file outside the checkout is read).
std::string CpuModel() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const size_t start = model.find_first_not_of(' ');
  return start == std::string::npos ? "unknown" : model.substr(start);
}

/// The instruction-set extensions the kernels could use, as cpuid reports
/// them, plus the ones the compiler was allowed to target.
std::string IsaFlags() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string cpu;
  auto add = [&cpu](bool present, const char* name) {
    if (!present) return;
    if (!cpu.empty()) cpu += ' ';
    cpu += name;
  };
  if (__get_cpuid(1, &a, &b, &c, &d) != 0) {
    add(d & (1u << 26), "sse2");
    add(c & (1u << 20), "sse4_2");
    add(c & (1u << 28), "avx");
    add(c & (1u << 12), "fma");
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    add(b & (1u << 5), "avx2");
    add(b & (1u << 16), "avx512f");
    add(b & (1u << 30), "avx512bw");
    add(c & (1u << 11), "avx512_vnni");
  }
  if (__get_cpuid_count(7, 1, &a, &b, &c, &d) != 0) {
    add(a & (1u << 4), "avx_vnni");
  }
  std::string compiled = "sse2";
#ifdef __AVX2__
  compiled += " avx2";
#endif
#ifdef __AVX512F__
  compiled += " avx512f";
#endif
  return "cpu: " + cpu + "; compiled: " + compiled;
}

const char* Getenv(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void Usage() {
  std::fprintf(stderr,
               "usage: magneto_perfbench --workload <device_stream|"
               "gateway_int8_vocab|learn_while_streaming> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  std::exit(2);
}

}  // namespace
}  // namespace magneto::perfbench

int main(int argc, char** argv) {
  using namespace magneto;
  using namespace magneto::perfbench;

  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) Usage();

  Report report;
  if (args.workload == "device_stream") {
    RunDeviceStream(args, &report);
  } else if (args.workload == "gateway_int8_vocab") {
    RunGateway(args, &report);
  } else if (args.workload == "learn_while_streaming") {
    RunLearnWhileStreaming(args, &report);
  } else {
    Usage();
  }
  if (args.trace) {
    // Layers this workload leaves idle report 0; figures that only exist in
    // untraced runs are dropped.
    std::map<std::string, std::pair<double, std::string>> layers;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = report.metrics.find(name);
      layers[name] = {it == report.metrics.end() ? 0.0 : it->second.first,
                      unit};
    }
    report.metrics = std::move(layers);
  }

  obs::JsonWriter detail(/*pretty=*/false);
  detail.BeginObject().Key("provenance").BeginObject();
  detail.Field("workload", args.workload)
      .Field("phase", args.trace ? "traced" : "untraced")
      .Field("seed", args.seed)
      .Field("seconds", args.seconds)
      .Field("cpu_model", CpuModel())
      .Field("nproc",
             static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Field("isa", IsaFlags())
      .Field("compiler", std::string("g++ ") + __VERSION__)
      .Field("build_type", PERFBENCH_BUILD_TYPE)
      .Field("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Field("git_sha", Getenv("PERFBENCH_GIT_SHA", "unknown"))
      .Field("source_digest", Getenv("PERFBENCH_SOURCE_DIGEST", "unknown"))
      .Field("pool_threads", static_cast<uint64_t>(ParallelThreads()));
  detail.EndObject().Key("notes").BeginObject();
  for (const auto& [key, value] : report.notes) detail.Field(key, value);
  detail.EndObject().EndObject();
  std::printf("%s\n", detail.str().c_str());

  obs::JsonWriter result(/*pretty=*/false);
  result.BeginObject()
      .Field("correct", report.correct)
      .Field("attempted", report.attempted)
      .Field("failed", report.failed)
      .Key("metrics")
      .BeginObject();
  for (const auto& [name, value] : report.metrics) {
    result.Key(name)
        .BeginObject()
        .Field("value", value.first)
        .Field("unit", value.second)
        .EndObject();
  }
  result.EndObject().EndObject();
  std::printf("%s\n", result.str().c_str());
  return 0;
}
