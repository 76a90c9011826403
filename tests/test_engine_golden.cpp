// Bitwise guard on the federation engine's seven strategies. FedAvg (with
// every FedAvgOptions knob off its default), FedTrans (forced to grow its
// model family), HeteroFL, SplitMix, FLuID, FedRolex and FedBuff each run
// in-process for two seeds, at 1 and at 4 threads. Each run is pinned to
//   - a hash of its final server weights, its RoundRecord history and its
//     billed costs (the "state" field),
//   - a hash of its per-client accuracies (the "accuracy" field), and
//   - for FedTrans, a hash of its checkpoint bytes (the "checkpoint" field).
// A refactor of how sessions are configured, driven or evaluated that keeps
// the numerics leaves every line unchanged, at either thread count.
//
// The GEMM tier is pinned to the scalar reference so the training numerics
// (and with them every weight and loss) are the same on every host.
//
// Re-recording (only for a change that is *meant* to move the numerics):
// run with FEDTRANS_GOLDEN_PRINT=1, which prints every case as a
// `{"case", 0x..., 0x..., 0x...}` line, and copy those lines into kGoldens.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/async.hpp"
#include "fl/runner.hpp"
#include "tensor/gemm.hpp"

namespace fedtrans {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_pod(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof v);
}

struct Golden {
  const char* name;  // "<strategy>/seed<n>"
  std::uint64_t state;
  std::uint64_t accuracy;
  std::uint64_t checkpoint;  // 0 for strategies without checkpoints
};

// FedRolex clients are evaluated on the rolling window that was last
// trained (FedRolexStrategy::probe_accuracy), not on the next round's.
const Golden kGoldens[] = {
    {"fedavg/seed5", 0xced5a91230b66ebbULL, 0x17abdf8f279bbd66ULL, 0x0000000000000000ULL},
    {"fedavg/seed23", 0x467ddc88f205a6f0ULL, 0x87d076b6039ffd04ULL, 0x0000000000000000ULL},
    {"fedtrans/seed5", 0xb9fb0fa8ff2f0941ULL, 0xd1b4e9739500b9d2ULL, 0x69de1e6f59b0c108ULL},
    {"fedtrans/seed23", 0xe8d670c86b724cf4ULL, 0x6c52a16611033478ULL, 0x9597566a8c62663dULL},
    {"heterofl/seed5", 0x2113c908868fcbd8ULL, 0x5277cc3fef3c29f6ULL, 0x0000000000000000ULL},
    {"heterofl/seed23", 0xd0a110d8959d7b7aULL, 0x6d1c74f303fd966cULL, 0x0000000000000000ULL},
    {"splitmix/seed5", 0xcf9403aa44179254ULL, 0x13da4a5a47bb3d92ULL, 0x0000000000000000ULL},
    {"splitmix/seed23", 0x1b36f2d6b0732df6ULL, 0xeff1bb979d7f976eULL, 0x0000000000000000ULL},
    {"fluid/seed5", 0x139086881b0b1e2fULL, 0xa78c94a565778215ULL, 0x0000000000000000ULL},
    {"fluid/seed23", 0x0fc7f17913ea1ac2ULL, 0x99fa4abfdee2f217ULL, 0x0000000000000000ULL},
    {"fedrolex/seed5", 0x35bb606db503eb00ULL, 0x5b41fab197f8aaabULL, 0x0000000000000000ULL},
    {"fedrolex/seed23", 0x585b4d745aca0527ULL, 0x18036b3f15140282ULL, 0x0000000000000000ULL},
    {"fedbuff/seed5", 0x02df38125df2876cULL, 0xcc16dda316eee3b7ULL, 0x0000000000000000ULL},
    {"fedbuff/seed23", 0x9814b50ff2941eadULL, 0x3989587d122c424bULL, 0x0000000000000000ULL},
};

DatasetConfig golden_data() {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = 10;
  cfg.mean_train_samples = 14;
  cfg.min_train_samples = 8;
  cfg.eval_samples = 12;
  cfg.noise = 0.2;
  cfg.seed = 31;
  return cfg;
}

std::vector<DeviceProfile> golden_fleet(int n, double macs) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.sigma_compute = 0.8;
  cfg.seed = 6;
  cfg.with_median_capacity(macs);
  return sample_fleet(cfg);
}

ModelSpec golden_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

std::uint64_t hash_weights(std::uint64_t h, const WeightSet& ws) {
  for (const Tensor& t : ws) {
    for (int d : t.shape()) h = fnv1a_pod(h, d);
    h = fnv1a(h, t.data(), static_cast<std::size_t>(t.numel()) * 4);
  }
  return h;
}

std::uint64_t hash_run(std::uint64_t h, const std::vector<RoundRecord>& hist,
                       const CostMeter& c) {
  for (const RoundRecord& r : hist) {
    h = fnv1a_pod(h, r.round);
    h = fnv1a_pod(h, r.avg_loss);
    h = fnv1a_pod(h, r.cum_macs);
    h = fnv1a_pod(h, r.accuracy);
    h = fnv1a_pod(h, r.round_time_s);
    h = fnv1a_pod(h, r.participants);
    h = fnv1a_pod(h, r.lost_updates);
    h = fnv1a_pod(h, r.leaf_failovers);
    h = fnv1a_pod(h, r.byzantine_updates);
  }
  h = fnv1a_pod(h, c.total_macs());
  h = fnv1a_pod(h, c.bytes_down());
  h = fnv1a_pod(h, c.bytes_up());
  h = fnv1a_pod(h, c.storage_bytes());
  h = fnv1a_pod(h, c.client_time_count());
  h = fnv1a_pod(h, c.client_time_mean());
  return h;
}

std::uint64_t hash_doubles(const std::vector<double>& xs) {
  std::uint64_t h = kFnvOffset;
  for (double x : xs) h = fnv1a_pod(h, x);
  return h;
}

SessionConfig golden_session(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 5;
  cfg.local.steps = 4;
  cfg.local.batch = 6;
  cfg.local.sgd.lr = 0.2;
  cfg.local.sgd.momentum = 0.5;
  cfg.eval_every = 2;
  cfg.eval_clients = 5;
  cfg.seed = seed;
  return cfg;
}

struct Outcome {
  std::uint64_t state = kFnvOffset;
  std::uint64_t accuracy = kFnvOffset;
  std::uint64_t checkpoint = 0;
};

Outcome run_fedavg(const FederatedDataset& data, std::uint64_t seed) {
  FedAvgOptions opts;
  opts.compression = CompressionKind::TopK;
  opts.topk_ratio = 0.3;
  opts.error_feedback = true;
  opts.overcommit = 0.5;
  opts.deadline_quantile = 0.75;
  Rng rng(seed);
  FederationEngine engine(
      std::make_unique<FedAvgStrategy>(Model(golden_model(), rng), opts), data,
      golden_fleet(data.num_clients(), 5e6), golden_session(seed));
  engine.run();
  Outcome o;
  o.state = hash_weights(o.state,
                         engine.strategy_as<FedAvgStrategy>().model().weights());
  o.state = hash_run(o.state, engine.history(), engine.costs());
  o.accuracy = hash_doubles(engine.client_accuracy());
  return o;
}

Outcome run_fedtrans(const FederatedDataset& data, std::uint64_t seed) {
  FedTransConfig cfg;
  static_cast<SessionConfig&>(cfg) = golden_session(seed);
  cfg.rounds = 6;
  cfg.eval_every = 3;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;  // force transformation
  cfg.act_window = 2;
  cfg.max_models = 3;
  FederationEngine engine(std::make_unique<FedTransStrategy>(golden_model(), cfg),
                          data, golden_fleet(data.num_clients(), 1e5), cfg);
  engine.run();
  auto& fedtrans = engine.strategy_as<FedTransStrategy>();
  Outcome o;
  for (int k = 0; k < fedtrans.num_models(); ++k)
    o.state = hash_weights(o.state, fedtrans.model(k).weights());
  o.state = hash_run(o.state, engine.history(), engine.costs());
  const FinalEval ev = fedtrans.evaluate_final();
  for (double a : ev.client_accuracy) o.state = fnv1a_pod(o.state, a);
  for (int m : ev.client_model) o.state = fnv1a_pod(o.state, m);
  o.accuracy = hash_doubles(engine.client_accuracy());
  std::ostringstream ckpt;
  save_checkpoint(engine, ckpt);
  const std::string bytes = ckpt.str();
  o.checkpoint = fnv1a(kFnvOffset, bytes.data(), bytes.size());
  return o;
}

/// Runs a multi-model baseline's session and hashes `weights` (read after
/// the run) with its history, costs and per-client accuracies.
Outcome run_baseline(std::unique_ptr<Strategy> strategy,
                     const FederatedDataset& data, std::uint64_t seed,
                     WeightSet (*weights)(FederationEngine&)) {
  FederationEngine engine(std::move(strategy), data,
                          golden_fleet(data.num_clients(), 2.5e4),
                          golden_session(seed));
  engine.run();
  Outcome o;
  o.state = hash_weights(o.state, weights(engine));
  o.state = hash_run(o.state, engine.history(), engine.costs());
  o.accuracy = hash_doubles(engine.client_accuracy());
  return o;
}

Outcome run_heterofl(const FederatedDataset& data, std::uint64_t seed) {
  return run_baseline(
      std::make_unique<HeteroFLStrategy>(golden_model()), data, seed,
      [](FederationEngine& e) {
        return e.strategy_as<HeteroFLStrategy>().global().weights();
      });
}

Outcome run_splitmix(const FederatedDataset& data, std::uint64_t seed) {
  return run_baseline(
      std::make_unique<SplitMixStrategy>(golden_model(), /*num_bases=*/4),
      data, seed, [](FederationEngine& e) {
        auto& splitmix = e.strategy_as<SplitMixStrategy>();
        WeightSet all;
        for (int b = 0; b < splitmix.num_bases(); ++b)
          for (Tensor& t : splitmix.base(b).weights())
            all.push_back(std::move(t));
        return all;
      });
}

Outcome run_fluid(const FederatedDataset& data, std::uint64_t seed) {
  return run_baseline(
      std::make_unique<FluidStrategy>(golden_model()), data, seed,
      [](FederationEngine& e) {
        return e.strategy_as<FluidStrategy>().global().weights();
      });
}

Outcome run_fedrolex(const FederatedDataset& data, std::uint64_t seed) {
  return run_baseline(
      std::make_unique<FedRolexStrategy>(golden_model()), data, seed,
      [](FederationEngine& e) {
        return e.strategy_as<FedRolexStrategy>().global().weights();
      });
}

Outcome run_fedbuff(const FederatedDataset& data, std::uint64_t seed) {
  SessionConfig cfg = golden_session(seed);
  cfg.with_async(AsyncBlock{4, 3, 5, 0.5});
  Rng rng(seed + 1);
  FederationEngine engine(
      std::make_unique<FedBuffStrategy>(Model(golden_model(), rng),
                                        ServerOptKind::FedAvg),
      data, golden_fleet(data.num_clients(), 5e6), cfg);
  engine.run();
  Outcome o;
  o.state = hash_weights(
      o.state, engine.strategy_as<FedBuffStrategy>().model().weights());
  o.state = hash_run(o.state, engine.history(), engine.costs());
  o.state = fnv1a_pod(o.state, engine.now_s());
  o.state = fnv1a_pod(o.state, engine.mean_staleness());
  o.accuracy = hash_doubles(engine.client_accuracy());
  return o;
}

TEST(EngineGolden, EveryStrategyMatchesRecordedAtOneAndFourThreads) {
  struct TierGuard {
    GemmBackend prev = gemm_backend();
    int threads = ThreadPool::global().size();
    ~TierGuard() {
      set_gemm_backend(prev);
      ThreadPool::set_global_threads(threads);
    }
  } guard;
  set_gemm_backend(GemmBackend::Scalar);
  const bool print = std::getenv("FEDTRANS_GOLDEN_PRINT") != nullptr;

  const FederatedDataset data = FederatedDataset::generate(golden_data());
  struct Method {
    const char* name;
    Outcome (*run)(const FederatedDataset&, std::uint64_t);
  };
  for (const Method& m : {Method{"fedavg", run_fedavg},
                          Method{"fedtrans", run_fedtrans},
                          Method{"heterofl", run_heterofl},
                          Method{"splitmix", run_splitmix},
                          Method{"fluid", run_fluid},
                          Method{"fedrolex", run_fedrolex},
                          Method{"fedbuff", run_fedbuff}}) {
    for (std::uint64_t seed : {5ULL, 23ULL}) {
      const std::string name =
          std::string(m.name) + "/seed" + std::to_string(seed);
      const Golden* want = nullptr;
      for (const Golden& g : kGoldens)
        if (name == g.name) want = &g;
      for (int threads : {1, 4}) {
        ThreadPool::set_global_threads(threads);
        const Outcome got = m.run(data, seed);
        char line[256];
        std::snprintf(line, sizeof line,
                      "{\"%s\", 0x%016llxULL, 0x%016llxULL, 0x%016llxULL},",
                      name.c_str(),
                      static_cast<unsigned long long>(got.state),
                      static_cast<unsigned long long>(got.accuracy),
                      static_cast<unsigned long long>(got.checkpoint));
        if (print) {
          std::printf("    %s  // %d threads\n", line, threads);
          continue;
        }
        ASSERT_NE(want, nullptr) << "no golden for " << line;
        EXPECT_EQ(got.state, want->state)
            << "weights, history or billing moved at " << threads
            << " threads: " << line;
        EXPECT_EQ(got.accuracy, want->accuracy)
            << "per-client accuracy moved at " << threads
            << " threads: " << line;
        EXPECT_EQ(got.checkpoint, want->checkpoint)
            << "checkpoint bytes moved at " << threads << " threads: "
            << line;
      }
    }
  }
}

}  // namespace
}  // namespace fedtrans
