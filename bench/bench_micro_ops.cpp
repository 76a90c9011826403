// Microbenchmarks (google-benchmark): the hot operations underneath every
// experiment — GEMM, conv2d forward/backward, a full local-training step,
// model transformation, and soft aggregation. Useful for regression-testing
// the substrate's performance.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

#include "baselines/robust.hpp"
#include "common/thread_pool.hpp"
#include "core/aggregator.hpp"
#include "data/dataset.hpp"
#include "fl/local_train.hpp"
#include "fl/runner.hpp"
#include "fl/server_opt.hpp"
#include "model/transform.hpp"
#include "nn/conv2d.hpp"
#include "nn/grouped_conv2d.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "trace/device.hpp"

namespace fedtrans {
namespace {

// items == MACs, so GFLOP/s = 2 × items_per_second / 1e9 (the convention
// scripts/bench_micro.sh uses when emitting BENCH_micro_ops.json).
void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  a.randn(rng);
  b.randn(rng);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Thread-count scaling of the acceptance-criterion shape (256³).
void BM_GemmThreads(benchmark::State& state) {
  ThreadPool::set_global_threads(static_cast<int>(state.range(0)));
  const int n = 256;
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c({n, n});
  a.randn(rng);
  b.randn(rng);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * n);
  ThreadPool::set_global_threads(ThreadPool::global_threads());
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4);

// Backend sweep on the acceptance shape (256³, single thread): BM_GemmSimd
// forces the best available SIMD micro-kernel, BM_GemmScalar the plain-C
// parity reference (compiled with auto-vectorization disabled, so this is a
// genuinely scalar baseline). The perf acceptance bar is SIMD ≥ 4× scalar.
void gemm_backend_bench(benchmark::State& state, GemmBackend b) {
  ThreadPool::set_global_threads(1);
  const GemmBackend prev = gemm_backend();
  set_gemm_backend(b);
  const int n = 256;
  Rng rng(1);
  Tensor a({n, n}), bm({n, n}), c({n, n});
  a.randn(rng);
  bm.randn(rng);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.0f, a.data(), n, bm.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          n * n);
  state.SetLabel(gemm_backend_name(b));
  set_gemm_backend(prev);
  ThreadPool::set_global_threads(ThreadPool::global_threads());
}

void BM_GemmScalar(benchmark::State& state) {
  gemm_backend_bench(state, GemmBackend::Scalar);
}
BENCHMARK(BM_GemmScalar);

void BM_GemmSimd(benchmark::State& state) {
  const GemmBackend best = best_gemm_backend();
  if (best == GemmBackend::Scalar) {
    state.SkipWithError("no SIMD gemm backend available on this build/host");
    return;
  }
  gemm_backend_bench(state, best);
}
BENCHMARK(BM_GemmSimd);

void conv_bench_backend(benchmark::State& state, bool backward) {
  set_conv_backend(state.range(0) == 0 ? ConvBackend::Im2col
                                       : ConvBackend::Direct);
  Rng rng(2);
  Conv2d conv(8, 16, 3, 1);
  conv.init(rng);
  Tensor x({8, 8, 12, 12});
  x.randn(rng);
  Tensor y = conv.forward(x, true);
  Tensor g(y.shape());
  g.fill(0.1f);
  for (auto _ : state) {
    if (backward) {
      // backward() consumes the panels its training forward kept.
      state.PauseTiming();
      conv.forward(x, true);
      state.ResumeTiming();
      Tensor dx = conv.backward(g);
      benchmark::DoNotOptimize(dx.data());
    } else {
      Tensor out = conv.forward(x, true);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * conv.macs({8, 12, 12}) * 8);
  set_conv_backend(ConvBackend::Im2col);
}

// Arg 0 = im2col (default backend), Arg 1 = direct reference loops.
void BM_Conv2dForward(benchmark::State& state) {
  conv_bench_backend(state, /*backward=*/false);
}
BENCHMARK(BM_Conv2dForward)->Arg(0)->Arg(1);

void BM_Conv2dBackward(benchmark::State& state) {
  conv_bench_backend(state, /*backward=*/true);
}
BENCHMARK(BM_Conv2dBackward)->Arg(0)->Arg(1);

// ResNet-style body layer: 3×3, 64→64 channels on a 14×14 map (the
// acceptance-criterion conv shape). items == MACs per forward pass.
void BM_ResNetConvForward(benchmark::State& state) {
  set_conv_backend(state.range(0) == 0 ? ConvBackend::Im2col
                                       : ConvBackend::Direct);
  Rng rng(7);
  Conv2d conv(64, 64, 3, 1);
  conv.init(rng);
  Tensor x({4, 64, 14, 14});
  x.randn(rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.macs({64, 14, 14}) * 4);
  set_conv_backend(ConvBackend::Im2col);
}
BENCHMARK(BM_ResNetConvForward)->Arg(0)->Arg(1);

void BM_ResNetConvBackward(benchmark::State& state) {
  set_conv_backend(state.range(0) == 0 ? ConvBackend::Im2col
                                       : ConvBackend::Direct);
  Rng rng(8);
  Conv2d conv(64, 64, 3, 1);
  conv.init(rng);
  Tensor x({4, 64, 14, 14});
  x.randn(rng);
  Tensor y = conv.forward(x, true);
  Tensor g(y.shape());
  g.fill(0.1f);
  for (auto _ : state) {
    // backward() consumes the panels its training forward kept.
    state.PauseTiming();
    conv.forward(x, true);
    state.ResumeTiming();
    Tensor dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * conv.macs({64, 14, 14}) * 4);
  set_conv_backend(ConvBackend::Im2col);
}
BENCHMARK(BM_ResNetConvBackward)->Arg(0)->Arg(1);

// Grouped vs dense conv throughput on the ResNet body shape (items == MACs,
// so the GFLOP/s *rates* are comparable across group counts even though the
// grouped layers do 1/g the work). Arg = groups; Arg(1) is the dense
// comparator. The batched im2col lowering packs a whole batch tile into one
// [ckk, bt·oh·ow] panel per group, which is what keeps grouped GFLOP/s
// in dense's ballpark instead of paying a sliver-GEMM penalty per image
// (forward also rides the short-M B-direct GEMM kernels).
void grouped_conv_bench(benchmark::State& state, bool backward) {
  const int groups = static_cast<int>(state.range(0));
  Rng rng(9);
  GroupedConv2d conv(64, 64, 3, groups, 1);
  conv.init(rng);
  Tensor x({4, 64, 14, 14});
  x.randn(rng);
  Tensor y = conv.forward(x, true);
  Tensor g(y.shape());
  g.fill(0.1f);
  for (auto _ : state) {
    if (backward) {
      // backward() consumes the panels its training forward kept.
      state.PauseTiming();
      conv.forward(x, true);
      state.ResumeTiming();
      Tensor dx = conv.backward(g);
      benchmark::DoNotOptimize(dx.data());
    } else {
      Tensor out = conv.forward(x, true);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * conv.macs({64, 14, 14}) * 4);
}

void BM_GroupedConvForward(benchmark::State& state) {
  grouped_conv_bench(state, /*backward=*/false);
}
BENCHMARK(BM_GroupedConvForward)->Arg(1)->Arg(4)->Arg(8);

void BM_GroupedConvBackward(benchmark::State& state) {
  grouped_conv_bench(state, /*backward=*/true);
}
BENCHMARK(BM_GroupedConvBackward)->Arg(1)->Arg(4)->Arg(8);

void BM_LocalTrainStep(benchmark::State& state) {
  DatasetConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.num_clients = 1;
  dcfg.hw = 12;
  dcfg.mean_train_samples = 40;
  auto data = FederatedDataset::generate(dcfg);
  Rng rng(4);
  Model model(ModelSpec::conv(1, 12, 10, 4, {6, 8}, {1, 1}, {1, 2}), rng);
  LocalTrainConfig cfg;
  cfg.steps = 1;
  cfg.batch = 10;
  for (auto _ : state) {
    auto res = local_train(model, data.client(0), cfg, rng);
    benchmark::DoNotOptimize(res.avg_loss);
  }
}
BENCHMARK(BM_LocalTrainStep);

void BM_WidenTransform(benchmark::State& state) {
  Rng rng(5);
  Model parent(ModelSpec::conv(3, 12, 10, 8, {16, 24}, {2, 2}, {1, 2}), rng);
  for (auto _ : state) {
    Model child = widen_cell(parent, 0, 2.0, 1, rng);
    benchmark::DoNotOptimize(child.macs());
  }
}
BENCHMARK(BM_WidenTransform);

void BM_SoftAggregation(benchmark::State& state) {
  Rng rng(6);
  Model m0(ModelSpec::conv(1, 12, 10, 4, {8, 12}, {1, 1}, {1, 2}), rng);
  Model m1 = widen_cell(m0, 0, 2.0, 1, rng);
  Model m2 = widen_cell(m1, 1, 2.0, 2, rng);
  SoftAggregator agg({0.98, true, true, false});
  std::vector<Model*> models{&m0, &m1, &m2};
  std::vector<std::vector<double>> sim{
      {1.0, 0.6, 0.4}, {0.6, 1.0, 0.7}, {0.4, 0.7, 1.0}};
  int round = 0;
  for (auto _ : state) {
    agg.aggregate(models, sim, round++);
    benchmark::DoNotOptimize(models[2]);
  }
}
BENCHMARK(BM_SoftAggregation);

// Robust (Byzantine-tolerant) reductions vs the linear FedAvg fold over
// the same batch of client deltas. arg0 = client count, arg1 = reducer
// (0 linear mean, 1 coordinate median, 2 trimmed mean @ 0.3/side). The
// per-coordinate sorts make the robust reducers O(n log n) per coordinate
// where the fold is O(n) — this records the constant. NormClip is
// excluded: its O(n²·numel) pairwise distances belong in a macro bench.
void BM_RobustAggregation(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  Rng rng(7);
  Model proto(ModelSpec::conv(1, 8, 8, 4, {8, 16}), rng);
  std::vector<WeightSet> deltas(static_cast<std::size_t>(clients));
  for (WeightSet& d : deltas) {
    d = ws_zeros_like(proto.weights());
    for (auto& t : d) t.randn(rng);
  }
  for (auto _ : state) {
    WeightSet out;
    switch (kind) {
      case 1:
        out = robust_coordinate_median(deltas);
        break;
      case 2:
        out = robust_trimmed_mean(deltas, 0.3);
        break;
      default: {
        out = ws_zeros_like(deltas.front());
        for (const WeightSet& d : deltas) ws_axpy(out, 1.0f, d);
        ws_scale(out, 1.0f / static_cast<float>(clients));
        break;
      }
    }
    benchmark::DoNotOptimize(out.front().data());
  }
  // items == coordinates reduced per iteration (clients × numel).
  state.SetItemsProcessed(state.iterations() * clients *
                          ws_numel(proto.weights()));
}
BENCHMARK(BM_RobustAggregation)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2});

// ---------------------------------------------------------------------------
// Engine dispatch overhead: one FedAvg round driven through the
// FederationEngine's Strategy hooks (arg 0) vs the identical work hand-coded
// as a flat loop with no virtual dispatch (arg 1). The workload is kept tiny
// (1 local step) so the fixed per-round engine cost is as large a share as
// it can be; the acceptance bar is engine ≤ 1% over inline.

struct EngineBenchFixture {
  EngineBenchFixture() {
    DatasetConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.num_clients = 8;
    dcfg.hw = 8;
    dcfg.channels = 1;
    dcfg.mean_train_samples = 12;
    dcfg.min_train_samples = 8;
    dcfg.eval_samples = 4;
    data = FederatedDataset::generate(dcfg);
    FleetConfig fcfg;
    fcfg.num_devices = dcfg.num_clients;
    fcfg.with_median_capacity(5e6);
    fleet = sample_fleet(fcfg);
  }
  static LocalTrainConfig local_cfg() {
    LocalTrainConfig local;
    local.steps = 1;
    local.batch = 4;
    return local;
  }
  static ModelSpec spec() { return ModelSpec::conv(1, 8, 4, 4, {6}); }

  FederatedDataset data;
  std::vector<DeviceProfile> fleet;
};

/// The legacy-style flat round loop: select, fork, train on the pool,
/// reduce in order, bill, aggregate — semantically FedAvgStrategy's round
/// without any engine or virtual-hook involvement.
double inline_fedavg_round(Model& model, const FederatedDataset& data,
                           const std::vector<DeviceProfile>& fleet,
                           const LocalTrainConfig& local, int k, Rng& rng,
                           CostMeter& costs, ServerOptimizer& opt) {
  auto selected = uniform_select(data.num_clients(), k, rng);
  WeightSet acc = ws_zeros_like(model.weights());
  double weight_sum = 0.0, loss_sum = 0.0, slowest = 0.0;
  const double model_bytes = static_cast<double>(model.param_bytes());

  std::vector<Rng> rngs;
  rngs.reserve(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i)
    rngs.push_back(rng.fork());
  std::vector<LocalTrainResult> results(selected.size());
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(selected.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          Model local_model = model;
          results[static_cast<std::size_t>(i)] = local_train(
              local_model,
              data.client(selected[static_cast<std::size_t>(i)]), local,
              rngs[static_cast<std::size_t>(i)]);
        }
      });

  for (std::size_t ci = 0; ci < selected.size(); ++ci) {
    auto& res = results[ci];
    const double w = static_cast<double>(res.num_samples);
    ws_axpy(acc, static_cast<float>(w), res.delta);
    weight_sum += w;
    loss_sum += res.avg_loss;
    costs.add_training_macs(res.macs_used);
    costs.add_transfer(model_bytes, model_bytes);
    const double t = client_round_time_s(
        fleet[static_cast<std::size_t>(selected[ci])],
        static_cast<double>(model.macs()), local.steps, local.batch,
        model_bytes);
    costs.add_client_round_time(t);
    slowest = std::max(slowest, t);
  }
  if (weight_sum > 0.0) {
    ws_scale(acc, static_cast<float>(1.0 / weight_sum));
    WeightSet global = model.weights();
    opt.apply(global, acc);
    model.set_weights(global);
  }
  benchmark::DoNotOptimize(slowest);
  return selected.empty() ? 0.0
                          : loss_sum / static_cast<double>(selected.size());
}

void BM_EngineRoundOverhead(benchmark::State& state) {
  EngineBenchFixture fx;
  const bool use_engine = state.range(0) == 0;
  const int clients_per_round = 4;

  if (use_engine) {
    FlRunConfig cfg;
    cfg.rounds = 1;
    cfg.clients_per_round = clients_per_round;
    cfg.local = EngineBenchFixture::local_cfg();
    cfg.seed = 3;
    Rng rng(7);
    FederationEngine engine(std::make_unique<FedAvgStrategy>(
                                Model(EngineBenchFixture::spec(), rng),
                                cfg.options()),
                            fx.data, fx.fleet, cfg.to_session());
    for (auto _ : state) {
      benchmark::DoNotOptimize(engine.run_round());
    }
    state.counters["rounds"] =
        static_cast<double>(engine.rounds_done());
  } else {
    Rng rng(7);
    Model model(EngineBenchFixture::spec(), rng);
    Rng round_rng(3);
    CostMeter costs;
    auto opt = make_server_opt(ServerOptKind::FedAvg);
    const LocalTrainConfig local = EngineBenchFixture::local_cfg();
    for (auto _ : state) {
      benchmark::DoNotOptimize(inline_fedavg_round(
          model, fx.data, fx.fleet, local, clients_per_round, round_rng,
          costs, *opt));
    }
  }
}
BENCHMARK(BM_EngineRoundOverhead)
    ->Arg(0)  // engine-dispatched round
    ->Arg(1)  // inline legacy-style loop
    ->MinTime(2.0);  // sub-1% deltas need a stable clock

// Tracing overhead: the same engine round with wall-clock tracing off
// (arg 0) vs on (arg 1). Every span site fires — engine phases, kernel
// dispatch, CostMeter histograms — so this is the worst-case per-round
// tracing tax; the acceptance bar is on ≤ 2% over off. Buffers are cleared
// each iteration so the run measures recording, not cap-induced drops.
void BM_TraceOverhead(benchmark::State& state) {
  EngineBenchFixture fx;
  const bool trace_on = state.range(0) == 1;
  FlRunConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 4;
  cfg.local = EngineBenchFixture::local_cfg();
  cfg.seed = 3;
  Rng rng(7);
  FederationEngine engine(std::make_unique<FedAvgStrategy>(
                              Model(EngineBenchFixture::spec(), rng),
                              cfg.options()),
                          fx.data, fx.fleet, cfg.to_session());
  if (trace_on) trace_start(TraceClock::Wall);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_round());
    if (trace_on) trace_clear();
  }
  if (trace_on) {
    trace_stop();
    trace_clear();
  }
  state.SetLabel(trace_on ? "trace=wall" : "trace=off");
}
BENCHMARK(BM_TraceOverhead)
    ->Arg(0)  // tracing compiled in, runtime-disabled (the default)
    ->Arg(1)  // wall-clock tracing live
    ->MinTime(2.0);

// Wire bytes of one FedAvg round at fp32 vs f16 storage. The benchmark's
// timing is incidental; the payload is the `bytes_per_round` counter read
// off CostMeter (the mixed-precision acceptance bar is an ~2× drop from
// Arg(0) to Arg(1)).
void BM_HalfWireBytes(benchmark::State& state) {
  EngineBenchFixture fx;
  const bool half = state.range(0) == 1;
  FlRunConfig cfg;
  cfg.rounds = 1;
  cfg.clients_per_round = 4;
  cfg.local = EngineBenchFixture::local_cfg();
  cfg.seed = 3;
  double bytes = 0.0;
  for (auto _ : state) {
    Rng rng(7);
    SessionConfig scfg = cfg.to_session();
    if (half) scfg.with_precision(Dtype::F16);
    FederationEngine engine(std::make_unique<FedAvgStrategy>(
                                Model(EngineBenchFixture::spec(), rng),
                                cfg.options()),
                            fx.data, fx.fleet, scfg);
    engine.run_round();
    bytes = engine.costs().network_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes_per_round"] = bytes;
  state.SetLabel(half ? "f16" : "f32");
}
BENCHMARK(BM_HalfWireBytes)->Arg(0)->Arg(1);

}  // namespace
}  // namespace fedtrans

int main(int argc, char** argv) {
  // Debian's pre-built libbenchmark reports ITS OWN flavor as
  // `library_build_type` (debug), which says nothing about this binary —
  // and it predates JSON output for AddCustomContext. --fedtrans_context
  // prints the authoritative keys for the repo build as one JSON object;
  // bench_micro.sh probes it and refuses to record unless
  // fedtrans_build_type says "release".
  if (argc > 1 && std::string_view(argv[1]) == "--fedtrans_context") {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    std::printf("{\"fedtrans_build_type\": \"%s\", "
                "\"fedtrans_gemm_backend\": \"%s\"}\n",
                build, fedtrans::gemm_backend_name(fedtrans::gemm_backend()));
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
