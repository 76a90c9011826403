#include "workloads.hpp"

#include <stdexcept>

#include "fl/async.hpp"
#include "fl/runner.hpp"
#include "harness/presets.hpp"
#include "tensor/dtype.hpp"
#include "trace/device.hpp"

namespace perfbench {

using namespace fedtrans;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"fedtrans-table2", 0.7, 100, 10},
      {"fedavg-pop-tree", 0.4, 100, 10},
      {"fedbuff-async-f16", 0.5, 120, 12},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

void SessionMeters::reset() {
  for (HookMeter* m : {&strategy.plan, &strategy.prepare, &strategy.payload,
                       &strategy.absorb, &strategy.finish, &strategy.probe,
                       &strategy.absorb_async, &select, &data})
    m->reset();
  strategy.last_tasks.store(0);
  strategy.async_since_ship.store(0);
}

namespace {

/// Wire `algo` into an engine over `data`, decorating the strategy,
/// selector and data seats when `meters` is given. `selector` replaces the
/// one the engine builds from cfg.selector; null keeps the default kind.
void install(Session& s, std::unique_ptr<Strategy> algo,
             const ClientDataProvider& data, std::vector<DeviceProfile> fleet,
             const SessionConfig& cfg,
             std::unique_ptr<ClientSelector> selector,
             SessionMeters* meters) {
  s.algo = algo.get();
  s.num_classes = data.num_classes();
  s.async = cfg.mode == SessionMode::Async;
  s.buffer_size = cfg.async.buffer_size;
  if (meters == nullptr) {
    s.engine = std::make_unique<FederationEngine>(std::move(algo), data,
                                                  std::move(fleet), cfg);
    if (selector) s.engine->set_selector(std::move(selector));
    return;
  }
  s.timed_data = std::make_unique<TimedDataProvider>(data, meters->data);
  s.engine = std::make_unique<FederationEngine>(
      std::make_unique<TimedStrategy>(std::move(algo), meters->strategy),
      *s.timed_data, std::move(fleet), cfg);
  if (!selector) selector = make_selector(cfg.selector);
  s.engine->set_selector(
      std::make_unique<TimedSelector>(std::move(selector), meters->select));
}

/// The paper's mechanism in-process: FedTrans on the Table 2 CIFAR-like
/// tiny preset, the family growing by transformation as it trains.
void build_fedtrans_table2(Session& s, std::uint64_t seed, int rounds,
                           SessionMeters* meters) {
  const ExperimentPreset p = cifar_like(Scale::Tiny, seed);
  FedTransConfig cfg = p.fedtrans;
  cfg.rounds = rounds;
  cfg.clients_per_round = 10;
  cfg.eval_every = 5;
  cfg.eval_clients = 0;  // every client
  s.dataset = std::make_unique<FederatedDataset>(
      FederatedDataset::generate(p.dataset));
  auto algo = std::make_unique<FedTransStrategy>(p.initial_model, cfg);
  s.fedtrans = algo.get();
  install(s, std::move(algo), *s.dataset, sample_fleet(p.fleet),
          static_cast<const SessionConfig&>(cfg), nullptr, meters);
}

/// FedAvg over a 100k-client population: availability-gated cohorts,
/// lazily materialized shards, and a 3-level numeric aggregation tree with
/// int8-quantized partial sums on the simulated transport.
void build_fedavg_pop_tree(Session& s, std::uint64_t seed, int rounds,
                           SessionMeters* meters) {
  constexpr int kCohort = 128;
  constexpr int kEvalClients = 128;
  PopulationConfig pc;
  pc.num_clients = 100000;
  pc.seed = seed;
  pc.shard.num_classes = 10;
  pc.shard.channels = 1;
  pc.shard.hw = 8;
  pc.shard.noise = 0.4;
  pc.fleet.with_median_capacity(5e6);
  pc.availability.base_online_frac = 0.8;
  pc.availability.diurnal_amplitude = 0.1;
  pc.pool_capacity = 2 * kCohort;
  s.pop = std::make_unique<Population>(pc);
  s.view = std::make_unique<PopulationDataView>(*s.pop);

  SessionConfig cfg;
  cfg.with_rounds(rounds)
      .with_clients_per_round(kCohort)
      .with_eval(5, kEvalClients)
      .with_seed(seed)
      .with_tree(3, 16)
      .with_partial_aggregation()
      .with_quantized_partials(PartialQuant::Int8);
  cfg.local.steps = 1;
  cfg.local.batch = 4;
  cfg.local.sgd.lr = 0.15;

  Rng mrng(seed * 31 + 7);
  Model init(ModelSpec::conv(1, 8, 10, 4, {6, 8}, {1, 1}, {1, 2}), mrng);
  install(s, std::make_unique<FedAvgStrategy>(std::move(init), FedAvgOptions{}),
          *s.view, s.pop->fleet(), cfg,
          std::make_unique<PopulationSelector>(*s.pop, s.view.get()), meters);
}

/// FedBuff async over the flat fabric on real sockets, training in fp16:
/// one client trains at a time on the calling thread.
void build_fedbuff_async_f16(Session& s, std::uint64_t seed, int versions,
                             SessionMeters* meters) {
  ExperimentPreset p = femnist_like(Scale::Tiny, seed);
  p.fleet.sigma_compute = 1.8;
  s.dataset = std::make_unique<FederatedDataset>(
      FederatedDataset::generate(p.dataset));

  SessionConfig cfg;
  cfg.with_local(p.fedtrans.local)
      .with_seed(seed)
      .with_eval(4, 0)
      .with_async(AsyncBlock{8, 4, versions, 0.5})
      .with_socket_transport()
      .with_precision(Dtype::F16);
  cfg.local.steps = 8;

  Rng mrng(seed * 31 + 11);
  Model init(p.initial_model, mrng);
  install(s,
          std::make_unique<FedBuffStrategy>(std::move(init),
                                            ServerOptKind::FedAvg),
          *s.dataset, sample_fleet(p.fleet), cfg, nullptr, meters);
}

}  // namespace

std::unique_ptr<Session> build_session(const WorkloadSpec& w,
                                       std::uint64_t seed, int rounds,
                                       SessionMeters* meters) {
  auto s = std::make_unique<Session>();
  if (w.name == "fedtrans-table2")
    build_fedtrans_table2(*s, seed, rounds, meters);
  else if (w.name == "fedavg-pop-tree")
    build_fedavg_pop_tree(*s, seed, rounds, meters);
  else if (w.name == "fedbuff-async-f16")
    build_fedbuff_async_f16(*s, seed, rounds, meters);
  else
    throw std::invalid_argument("unknown workload " + w.name);
  return s;
}

}  // namespace perfbench
