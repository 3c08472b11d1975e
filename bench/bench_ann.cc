// ANN support-set index at hundred-class scale: IVF-Flat candidate selection
// behind the KNN classifier, swept over nprobe at 50/200/500 procedural
// activity classes (LargeVocabularyLibrary), fp32 and int8 exemplar storage.
// For every cell the bench reports recall@1/recall@5 against the exact scan
// of the same storage, plus single-thread classify latency measured
// interleaved (exact and ANN alternate short rounds so scheduler noise hits
// both alike).
//
// The bench *enforces* the acceptance contract:
//   - at 200 classes, fp32, default nprobe (8): recall@1 >= 0.95 AND
//     classify speedup >= 5x over the exact scan,
//   - the exact fallback (index below min_index_size) is byte-identical to
//     an ANN-disabled classifier,
//   - ANN predictions are bit-identical across thread counts (1/4/8 — the
//     in-process equivalent of sweeping MAGNETO_THREADS),
//   - at 200 classes, the int8 exact scan is faster than the fp32 exact scan:
//     `int8_over_fp32_exact`, the median over interleaved trials of their
//     classify-time ratio, is below 1.0. The 0.6 target is reported beside
//     it, together with the int8 kernel tier the process selected.
//
// Emits BENCH_ann.json (+ metrics sidecar with the ann.* counters).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

namespace magneto::bench {
namespace {

constexpr double kMinRecallAt1 = 0.95;
constexpr double kMinSpeedup = 5.0;
constexpr double kMaxInt8OverFp32 = 1.0;
constexpr double kTargetInt8OverFp32 = 0.6;
constexpr int kRatioTrials = 15;
constexpr size_t kGateClasses = 200;
const size_t kGateNprobe = core::AnnOptions{}.nprobe;  // the default knob

constexpr size_t kNprobes[] = {1, 2, 4, 8, 16, 32};
constexpr size_t kClassCounts[] = {50, 200, 500};

/// Untrained He-initialised MLP: a seeded random projection preserves the
/// cluster geometry of the 80-feature space well enough for index
/// experiments, at none of the training cost of a real backbone.
class MlpEmbedder : public core::Embedder {
 public:
  MlpEmbedder() {
    Rng rng(123);
    net_ = nn::BuildMlp(preprocess::kNumFeatures, {64, 32}, &rng);
  }
  Matrix Embed(const Matrix& features) override {
    return net_.Forward(features, &ws_, /*training=*/false);
  }
  size_t embedding_dim() const override { return 32; }

 private:
  nn::Sequential net_;
  nn::ForwardWorkspace ws_;
};

struct VocabularyData {
  core::SupportSet support{1, core::SelectionStrategy::kRandom};
  sensors::FeatureDataset queries;
};

/// `classes` procedural activities, `per_class` support windows + `queries`
/// query windows each, through a pipeline fitted on the same corpus (the
/// cloud's job in a real deployment).
VocabularyData MakeVocabulary(size_t classes, size_t per_class,
                              size_t queries_per_class) {
  sensors::LargeVocabularyOptions vocab;
  vocab.num_classes = classes;
  vocab.overlap = 0.3;
  vocab.seed = 1;
  sensors::SyntheticGenerator gen(2);
  const double seconds =
      static_cast<double>(per_class + queries_per_class) + 0.5;
  auto corpus = gen.GenerateVocabularyDataset(vocab, 1, seconds);

  preprocess::Pipeline pipeline{preprocess::PipelineConfig{}};
  const sensors::FeatureDataset features =
      Unwrap(pipeline.Fit(corpus), "pipeline fit");

  VocabularyData data;
  data.support =
      core::SupportSet(per_class, core::SelectionStrategy::kRandom);
  Rng rng(3);
  for (const auto& [id, count] : features.ClassCounts()) {
    sensors::FeatureDataset class_rows = features.FilterByClass(id);
    sensors::FeatureDataset support_rows;
    for (size_t i = 0; i < class_rows.size(); ++i) {
      if (i < per_class) {
        support_rows.Append(class_rows.Row(i), class_rows.dim(), id);
      } else {
        data.queries.Append(class_rows.Row(i), class_rows.dim(), id);
      }
    }
    CheckOk(data.support.SetClass(id, support_rows, nullptr, &rng),
            "set class");
  }
  return data;
}

/// Embedded queries (rows) through the bench embedder.
Matrix EmbedQueries(core::Embedder* embedder,
                    const sensors::FeatureDataset& queries) {
  return embedder->Embed(queries.ToMatrix());
}

core::KnnClassifier BuildClassifier(const core::SupportSet& support,
                                    core::Embedder* embedder, bool int8,
                                    bool ann, size_t nprobe) {
  core::KnnClassifier::Options options;
  options.quantize_exemplars = int8;
  options.ann.enable = ann;
  options.ann.nprobe = nprobe;
  return Unwrap(core::KnnClassifier::FromSupportSet(support, embedder,
                                                    options),
                "build classifier");
}

/// Fraction of queries whose ANN top-1 / top-5 neighbour sets contain the
/// exact scan's answers (computed on the same exemplar storage, so int8
/// recall is measured against the int8 exact scan).
struct Recall {
  double at1 = 0.0;
  double at5 = 0.0;
};

Recall MeasureRecall(const core::KnnClassifier& exact,
                     const core::KnnClassifier& ann, const Matrix& queries) {
  core::KnnClassifier::Scratch se, sa;
  size_t hit1 = 0, hit5 = 0;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto truth = Unwrap(
        exact.Neighbors(queries.RowPtr(i), queries.cols(), 5, &se), "exact");
    auto got = Unwrap(
        ann.Neighbors(queries.RowPtr(i), queries.cols(), 5, &sa), "ann");
    if (!got.empty() && !truth.empty() && got[0].second == truth[0].second) {
      ++hit1;
    }
    size_t found = 0;
    for (const auto& [td, ti] : truth) {
      for (const auto& [gd, gi] : got) {
        if (gi == ti) {
          ++found;
          break;
        }
      }
    }
    if (found == truth.size()) ++hit5;
  }
  const double n = static_cast<double>(queries.rows());
  return {static_cast<double>(hit1) / n, static_cast<double>(hit5) / n};
}

/// Mean single-thread classify latency over the query set, one round.
double ClassifyRoundMicros(const core::KnnClassifier& classifier,
                           const Matrix& queries,
                           core::KnnClassifier::Scratch* scratch) {
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < queries.rows(); ++i) {
    CheckOk(classifier.Classify(queries.RowPtr(i), queries.cols(), scratch)
                .status(),
            "classify");
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         static_cast<double>(queries.rows());
}

/// Interleaved best-of-rounds: exact and ANN alternate within each pass.
struct LatencyPair {
  double exact_us = 0.0;
  double ann_us = 0.0;
};

LatencyPair MeasureLatency(const core::KnnClassifier& exact,
                           const core::KnnClassifier& ann,
                           const Matrix& queries, int rounds = 5) {
  SetParallelThreads(1);
  core::KnnClassifier::Scratch se, sa;
  (void)ClassifyRoundMicros(exact, queries, &se);  // warm both paths
  (void)ClassifyRoundMicros(ann, queries, &sa);
  LatencyPair best;
  for (int r = 0; r < rounds; ++r) {
    const double e = ClassifyRoundMicros(exact, queries, &se);
    const double a = ClassifyRoundMicros(ann, queries, &sa);
    if (r == 0 || e < best.exact_us) best.exact_us = e;
    if (r == 0 || a < best.ann_us) best.ann_us = a;
  }
  SetParallelThreads(0);
  return best;
}

/// Quartiles of the int8-exact / fp32-exact classify-time ratio.
struct RatioQuartiles {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};

/// Interleaved trials: each one times both exact scans back to back,
/// alternating which goes first, so drift and scheduler noise hit both.
RatioQuartiles MeasureInt8OverFp32(const core::KnnClassifier& fp32,
                                   const core::KnnClassifier& int8,
                                   const Matrix& queries) {
  SetParallelThreads(1);
  core::KnnClassifier::Scratch sf, si;
  (void)ClassifyRoundMicros(fp32, queries, &sf);  // warm both paths
  (void)ClassifyRoundMicros(int8, queries, &si);
  std::vector<double> ratios;
  for (int t = 0; t < kRatioTrials; ++t) {
    double f = 0.0, i = 0.0;
    if (t % 2 == 0) {
      f = ClassifyRoundMicros(fp32, queries, &sf);
      i = ClassifyRoundMicros(int8, queries, &si);
    } else {
      i = ClassifyRoundMicros(int8, queries, &si);
      f = ClassifyRoundMicros(fp32, queries, &sf);
    }
    ratios.push_back(i / f);
  }
  SetParallelThreads(0);
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  return {ratios[n / 4], ratios[n / 2], ratios[(3 * n) / 4]};
}

/// FNV-1a over the raw prediction bytes of every query — the thread-count
/// determinism fingerprint.
uint64_t PredictionFingerprint(const core::KnnClassifier& classifier,
                               const Matrix& queries) {
  core::KnnClassifier::Scratch scratch;
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < queries.rows(); ++i) {
    const core::Prediction p =
        Unwrap(classifier.Classify(queries.RowPtr(i), queries.cols(),
                                   &scratch),
               "classify");
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(&p);
    for (size_t b = 0; b < sizeof(p); ++b) {
      h = (h ^ bytes[b]) * 1099511628211ull;
    }
  }
  return h;
}

int Run() {
  MlpEmbedder embedder;
  int failures = 0;
  double gate_recall1 = 0.0, gate_speedup = 0.0;
  RatioQuartiles int8_ratio;

  obs::JsonWriter json = BenchJson("ann");
  json.Field("recall_gate", kMinRecallAt1)
      .Field("speedup_gate", kMinSpeedup)
      .Field("gate_classes", static_cast<uint64_t>(kGateClasses))
      .Field("gate_nprobe", static_cast<uint64_t>(kGateNprobe))
      .Field("int8_kernel_tier", Int8KernelTier());
  json.Key("sweep").BeginArray();

  for (size_t classes : kClassCounts) {
    // ~50 exemplars/class at 50/200 classes, leaner at 500 to keep the
    // bench inside its budget; 2 query windows per class.
    const size_t per_class = classes >= 500 ? 24 : 50;
    VocabularyData data = MakeVocabulary(classes, per_class, 2);
    const Matrix queries = EmbedQueries(&embedder, data.queries);
    std::printf("== %zu classes (%zu exemplars, %zu queries) ==\n", classes,
                data.support.TotalSize(), queries.rows());

    for (bool int8 : {false, true}) {
      core::KnnClassifier exact =
          BuildClassifier(data.support, &embedder, int8, false, 0);
      for (size_t nprobe : kNprobes) {
        core::KnnClassifier ann =
            BuildClassifier(data.support, &embedder, int8, true, nprobe);
        if (!ann.ann_active()) {
          std::fprintf(stderr, "FAIL: index inactive at %zu classes\n",
                       classes);
          return 1;
        }
        const Recall recall = MeasureRecall(exact, ann, queries);
        const LatencyPair lat = MeasureLatency(exact, ann, queries);
        const double speedup = lat.exact_us / lat.ann_us;
        std::printf(
            "%s nprobe %2zu: recall@1 %.3f  recall@5 %.3f  exact %7.1f us  "
            "ann %7.1f us  speedup %5.2fx\n",
            int8 ? "int8" : "fp32", nprobe, recall.at1, recall.at5,
            lat.exact_us, lat.ann_us, speedup);
        json.BeginObject()
            .Field("classes", static_cast<uint64_t>(classes))
            .Field("exemplars", static_cast<uint64_t>(data.support.TotalSize()))
            .Field("storage", int8 ? "int8" : "fp32")
            .Field("nprobe", static_cast<uint64_t>(nprobe))
            .Field("recall_at_1", recall.at1)
            .Field("recall_at_5", recall.at5)
            .Field("exact_us", lat.exact_us)
            .Field("ann_us", lat.ann_us)
            .Field("speedup", speedup)
            .EndObject();
        if (classes == kGateClasses && !int8 && nprobe == kGateNprobe) {
          gate_recall1 = recall.at1;
          gate_speedup = speedup;
        }
      }
    }

    // Exact-fallback gate: ann.enable with an out-of-reach min_index_size
    // must serve byte-identical predictions to an ANN-disabled classifier.
    if (classes == kGateClasses) {
      core::KnnClassifier::Options fallback_options;
      fallback_options.ann.enable = true;
      fallback_options.ann.min_index_size = data.support.TotalSize() + 1;
      core::KnnClassifier fallback = Unwrap(
          core::KnnClassifier::FromSupportSet(data.support, &embedder,
                                              fallback_options),
          "fallback");
      core::KnnClassifier plain =
          BuildClassifier(data.support, &embedder, false, false, 0);
      if (fallback.ann_active()) {
        std::fprintf(stderr, "FAIL: fallback built an index\n");
        ++failures;
      }
      core::KnnClassifier::Scratch sf, sp;
      bool identical = true;
      for (size_t i = 0; i < queries.rows(); ++i) {
        const core::Prediction a = Unwrap(
            fallback.Classify(queries.RowPtr(i), queries.cols(), &sf), "f");
        const core::Prediction b = Unwrap(
            plain.Classify(queries.RowPtr(i), queries.cols(), &sp), "p");
        identical &= std::memcmp(&a, &b, sizeof(core::Prediction)) == 0;
      }
      json.BeginObject()
          .Field("classes", static_cast<uint64_t>(classes))
          .Field("check", "exact_fallback_byte_identical")
          .Field("pass", identical)
          .EndObject();
      if (!identical) {
        std::fprintf(stderr, "FAIL: exact fallback diverged\n");
        ++failures;
      } else {
        std::printf("exact fallback: byte-identical to pre-ANN scan\n");
      }

      // Thread-count determinism: index build + classify fingerprints must
      // agree across pool sizes.
      uint64_t fingerprints[3] = {0, 0, 0};
      const size_t thread_counts[3] = {1, 4, 8};
      for (int t = 0; t < 3; ++t) {
        SetParallelThreads(thread_counts[t]);
        core::KnnClassifier ann = BuildClassifier(data.support, &embedder,
                                                  false, true, kGateNprobe);
        fingerprints[t] = PredictionFingerprint(ann, queries);
      }
      SetParallelThreads(0);
      const bool deterministic = fingerprints[0] == fingerprints[1] &&
                                 fingerprints[0] == fingerprints[2];
      json.BeginObject()
          .Field("classes", static_cast<uint64_t>(classes))
          .Field("check", "thread_count_bit_identical")
          .Field("pass", deterministic)
          .Field("fingerprint", fingerprints[0])
          .EndObject();
      if (!deterministic) {
        std::fprintf(stderr,
                     "FAIL: predictions differ across thread counts "
                     "(%016llx %016llx %016llx)\n",
                     static_cast<unsigned long long>(fingerprints[0]),
                     static_cast<unsigned long long>(fingerprints[1]),
                     static_cast<unsigned long long>(fingerprints[2]));
        ++failures;
      } else {
        std::printf("thread sweep 1/4/8: bit-identical predictions\n");
      }

      // The int8 exact scan must beat the fp32 one on the same exemplars.
      int8_ratio = MeasureInt8OverFp32(
          BuildClassifier(data.support, &embedder, false, false, 0),
          BuildClassifier(data.support, &embedder, true, false, 0), queries);
      json.BeginObject()
          .Field("classes", static_cast<uint64_t>(classes))
          .Field("check", "int8_over_fp32_exact")
          .Field("trials", static_cast<uint64_t>(kRatioTrials))
          .Field("median", int8_ratio.median)
          .Field("p25", int8_ratio.p25)
          .Field("p75", int8_ratio.p75)
          .Field("gate", kMaxInt8OverFp32)
          .Field("target", kTargetInt8OverFp32)
          .Field("meets_target", int8_ratio.median <= kTargetInt8OverFp32)
          .Field("pass", int8_ratio.median < kMaxInt8OverFp32)
          .EndObject();
      std::printf(
          "int8/fp32 exact scan (%s kernels): median %.3f  IQR [%.3f, "
          "%.3f]  gate < %.1f  target <= %.1f\n",
          Int8KernelTier(), int8_ratio.median, int8_ratio.p25,
          int8_ratio.p75, kMaxInt8OverFp32, kTargetInt8OverFp32);
    }
  }
  json.EndArray();

  json.Field("gate_recall_at_1", gate_recall1)
      .Field("gate_speedup", gate_speedup)
      .Field("int8_over_fp32_exact", int8_ratio.median)
      .EndObject();
  if (!json.WriteToFile("BENCH_ann.json")) {
    std::fprintf(stderr, "cannot write BENCH_ann.json\n");
    return 1;
  }
  std::printf("wrote BENCH_ann.json\n");
  WriteMetricsSnapshot("BENCH_ann.metrics.json");

  if (gate_recall1 < kMinRecallAt1) {
    std::fprintf(stderr, "FAIL: recall@1 %.3f < %.2f at %zu classes\n",
                 gate_recall1, kMinRecallAt1, kGateClasses);
    ++failures;
  }
  if (gate_speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx < %.1fx at %zu classes\n",
                 gate_speedup, kMinSpeedup, kGateClasses);
    ++failures;
  }
  if (!(int8_ratio.median < kMaxInt8OverFp32)) {
    std::fprintf(stderr,
                 "FAIL: int8 exact scan %.3fx the fp32 one (gate < %.1f) at "
                 "%zu classes\n",
                 int8_ratio.median, kMaxInt8OverFp32, kGateClasses);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace magneto::bench

int main() { return magneto::bench::Run(); }
