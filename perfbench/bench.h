// Shared pieces of the repository benchmark: exact sample statistics, the
// result record every workload fills, the heap-allocation counter, and the
// seeded input generators (raw sensor frames from personalised users).
#ifndef MAGNETO_PERFBENCH_BENCH_H_
#define MAGNETO_PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "magneto.h"

namespace magneto::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Heap allocations made by any thread since process start (counted by the
/// operator new replacement in main.cc).
uint64_t AllocCount();

/// Raw samples kept in memory; percentiles are exact order statistics
/// (nearest rank), never histogram bucket bounds.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
  }
  double Median() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }
  double Mean() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return values_.empty() ? 0.0 : s / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// What one workload run reports. `metrics` go to the result line; `notes`
/// (sample counts, per-rung detail, the phase that produced each figure) go
/// to the detail line and the result file.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void Note(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    notes.emplace_back(key, buf);
  }
  /// Records a correctness check; a failed check marks the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    Note("check_failed", what);
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Aborts the benchmark on an error the workload cannot recover from.
inline void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}
template <typename T>
T Take(Result<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

/// One spinning SCHED_IDLE thread pinned to each CPU while alive. On a
/// virtual machine an idle vCPU halts, and waking it (a futex wake across
/// threads) costs milliseconds when the host is busy; that wake latency
/// would swamp the serving latency being measured. Idle-class threads keep
/// every vCPU out of halt and yield to any normal thread at once, like
/// booting with idle=poll.
class IdleKeepers {
 public:
  IdleKeepers();
  ~IdleKeepers();
  IdleKeepers(const IdleKeepers&) = delete;
  IdleKeepers& operator=(const IdleKeepers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set of this process in MB.
double PeakRssMb();

/// One labelled stretch of raw frames.
struct LabeledFrames {
  std::vector<sensors::Frame> frames;
  sensors::ActivityId label = 0;
};

std::vector<sensors::Frame> ToFrames(const sensors::Recording& recording);

/// Copies `window_samples` frames starting at `start` into a window matrix
/// (rows = time), exactly as the runtime's stream buffer does.
Matrix WindowAt(const std::vector<sensors::Frame>& frames, size_t start,
                size_t window_samples);

/// A user's activity stream: `bouts` bouts of `windows_per_bout` whole
/// windows each, activities drawn from `library`, the user personalised by
/// a `UserProfile` of `intensity`. Bouts are window-aligned, so each window
/// has one label.
std::vector<LabeledFrames> UserStream(const sensors::ActivityLibrary& library,
                                      uint64_t seed, double intensity,
                                      size_t bouts, size_t windows_per_bout,
                                      size_t window_samples);

/// Population corpus: `users` users personalised at `intensity`, one
/// recording of `seconds` per class each, under sampled capture contexts
/// when `contexts` is set.
std::vector<sensors::LabeledRecording> PopulationCorpus(
    const sensors::ActivityLibrary& library, uint64_t seed, size_t users,
    double seconds, double intensity, bool contexts);

/// Cloud pre-training configuration of the paper backbone
/// [1024, 512, 128, 64, 128] used by every workload.
core::CloudConfig PaperConfig(uint64_t seed, size_t epochs);

/// Registry naming every class of a procedural vocabulary ("v<id>").
sensors::ActivityRegistry VocabularyRegistry(
    const sensors::ActivityLibrary& library);

/// Library of the classes of a procedural vocabulary in [first, last).
sensors::ActivityLibrary Slice(const sensors::ActivityLibrary& library,
                               size_t first, size_t last);

/// Exact equality of two predictions (activity, distance and confidence).
inline bool SamePrediction(const core::Prediction& a,
                           const core::Prediction& b) {
  return a.activity == b.activity && a.distance == b.distance &&
         a.confidence == b.confidence;
}

/// The workloads. Each fills `report` with its end-to-end metrics (untraced)
/// or its per-layer metrics (traced).
void RunDeviceStream(const Args& args, Report* report);
void RunGateway(const Args& args, Report* report);
void RunLearnWhileStreaming(const Args& args, Report* report);

/// Pool lanes every workload sets up with. On a shared 4-vCPU virtual
/// machine a set-up on all four lanes waits at every parallel region for
/// whichever vCPU the hypervisor has lent elsewhere; on two lanes the
/// ten-run spread of device_stream's set-up fell from 20-36% to 5-7%.
inline constexpr size_t kSetupThreads = 2;

/// Layers of the paper backbone: Linear, ReLU, ..., Linear.
inline constexpr size_t kBackboneLayers = 9;

/// Per-layer metric names of backbone layer `layer` (< kBackboneLayers):
/// nn.fp32.l<i>_<linear|relu>_us and nn.int8.l<i>_<qlinear|relu>_b8_us.
std::string Fp32LayerMetric(size_t layer);
std::string Int8LayerMetric(size_t layer);

/// Every per-layer metric name with its unit. A traced run reports all of
/// them; layers a workload leaves idle report 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace magneto::perfbench

#endif  // MAGNETO_PERFBENCH_BENCH_H_
