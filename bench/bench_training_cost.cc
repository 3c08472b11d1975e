/// Ablation A2: on-device retraining cost — the paper's energy constraint
/// proxy ("the training process [must] be very efficient without excessive
/// power consumption", §1).
///
/// Measures wall time of one incremental update as a function of update
/// epochs, support capacity, and backbone size (demo vs paper architecture).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace magneto::bench {
namespace {

struct UpdateFixture {
  UpdateFixture(std::vector<size_t> dims, size_t support_capacity) {
    core::CloudConfig config = BenchCloudConfig();
    config.backbone_dims = std::move(dims);
    config.support_capacity = support_capacity;
    config.train.epochs = 2;  // the bench measures the *update*, not pretrain
    core::CloudInitializer cloud(config);
    auto bundle =
        Unwrap(cloud.Initialize(BenchCorpus(1, 3, 8.0),
                                sensors::ActivityRegistry::BaseActivities()),
               "cloud init");
    wire = bundle.SerializeToString();
    sensors::SyntheticGenerator gen(2);
    capture = gen.Generate(sensors::MakeGestureModel(77), 25.0);
  }

  std::string wire;
  sensors::Recording capture;
};

void RunUpdate(benchmark::State& state, UpdateFixture& fixture,
               size_t epochs) {
  for (auto _ : state) {
    state.PauseTiming();
    auto bundle =
        Unwrap(core::ModelBundle::FromString(fixture.wire), "clone");
    core::SupportSet support = std::move(bundle.support);
    core::EdgeModel model = std::move(bundle).ToEdgeModel();
    core::IncrementalOptions options;
    options.train.epochs = epochs;
    options.train.distill_weight = 1.0;
    options.train.seed = 3;
    core::IncrementalLearner learner(options);
    state.ResumeTiming();

    auto outcome = learner.LearnNewActivity(model, support, "Gesture Hi",
                                            {fixture.capture});
    benchmark::DoNotOptimize(outcome);
  }
}

void BM_Update_DemoBackbone_Epochs(benchmark::State& state) {
  static auto* fixture = new UpdateFixture({128, 64, 32}, 50);
  RunUpdate(state, *fixture, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Update_DemoBackbone_Epochs)
    ->Arg(2)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_Update_DemoBackbone_SupportSize(benchmark::State& state) {
  // Support capacity grows the retraining set: cost scales with it.
  static std::map<int64_t, UpdateFixture*>* fixtures =
      new std::map<int64_t, UpdateFixture*>();
  if (fixtures->count(state.range(0)) == 0) {
    (*fixtures)[state.range(0)] = new UpdateFixture(
        {128, 64, 32}, static_cast<size_t>(state.range(0)));
  }
  RunUpdate(state, *(*fixtures)[state.range(0)], 5);
}
BENCHMARK(BM_Update_DemoBackbone_SupportSize)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_Update_PaperBackbone(benchmark::State& state) {
  // The paper's exact architecture (~690k params), 3 update epochs.
  static auto* fixture =
      new UpdateFixture({1024, 512, 128, 64, 128}, 50);
  RunUpdate(state, *fixture, 3);
}
BENCHMARK(BM_Update_PaperBackbone)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Prototype rebuild alone (what calibration pays beyond training).
void BM_RebuildPrototypes(benchmark::State& state) {
  static auto* fixture = new UpdateFixture({128, 64, 32}, 50);
  auto bundle = Unwrap(core::ModelBundle::FromString(fixture->wire), "clone");
  core::SupportSet support = std::move(bundle.support);
  core::EdgeModel model = std::move(bundle).ToEdgeModel();
  for (auto _ : state) {
    CheckOk(model.RebuildPrototypes(support), "rebuild");
  }
}
BENCHMARK(BM_RebuildPrototypes)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace magneto::bench

BENCHMARK_MAIN();
