// Bitwise guard on the flat (levels = 1) federation fabric. Three sessions —
// FedAvg (one shared weight blob per round), HeteroFL (per-task
// architectures on the wire) and FedBuff (async round trips) — run flat on
// the simulated and on the socket transport, fault-free and under drop +
// duplicate + reorder + client dropout with a retry budget, leaf deaths and
// delta downlinks. Each run is pinned to a hash of its final weights, its
// RoundRecord history and its billed costs, and to the exact FabricStats
// counters. A refactor of the server's broadcast or collect path that sends
// the same frames with the same bytes in the same per-link order leaves
// every line unchanged; one extra, missing or reordered frame fails here.
//
// The GEMM tier is pinned to the scalar reference so the training numerics
// (and with them every weight and loss) are the same on every host.
//
// Re-recording (only for a change that is *meant* to move fabric traffic or
// numerics): run with FEDTRANS_GOLDEN_PRINT=1, which prints every case as a
// `{"case", 0x..., "counters"}` line, and copy those lines into kGoldens.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/hetero_fl.hpp"
#include "fl/async.hpp"
#include "fl/engine.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
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
  const char* name;  // "<session>/<transport>/<clean|faulted>"
  std::uint64_t hash;
  const char* counters;
};

// Recorded on the fabric whose flat server still had its own broadcast
// and collect loops; serving the flat fabric as a 1-level tree (the root as
// its only leaf) must send exactly these frames. Sim and socket runs agree
// line for line, as the transports' fault draws are shared.
// The faulted FedBuff lines' dropouts= are async round trips whose client
// trained and then vanished (FederationServer::async_complete), counted
// like the sync path's.
const Golden kGoldens[] = {
    {"fedavg/sim/clean", 0x8767da34da567388ULL,
     "sent=64/107520 delivered=64/107520 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=53568 downlink=53952 cache=0/0 delta=0/0 dropouts=0"},
    {"fedavg/sim/faulted", 0xfde4d190d82b497eULL,
     "sent=62/100926 delivered=66/110946 dropped=9 dup=13 reordered=16 rejected=0 retried=3/0/9936 failovers=0/0 root_in=50250 downlink=53952 cache=0/0 delta=0/0 dropouts=2"},
    {"fedavg/socket/clean", 0x8767da34da567388ULL,
     "sent=64/107520 delivered=64/107520 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=53568 downlink=53952 cache=0/0 delta=0/0 dropouts=0"},
    {"fedavg/socket/faulted", 0xfde4d190d82b497eULL,
     "sent=62/100926 delivered=66/110946 dropped=9 dup=13 reordered=16 rejected=0 retried=3/0/9936 failovers=0/0 root_in=50250 downlink=53952 cache=0/0 delta=0/0 dropouts=2"},
    {"heterofl/sim/clean", 0x5a0864dbbde16e87ULL,
     "sent=80/137020 delivered=80/137020 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=66960 downlink=70060 cache=0/0 delta=0/0 dropouts=0"},
    {"heterofl/sim/faulted", 0x0d57d50eacc7ab97ULL,
     "sent=77/127129 delivered=87/141198 dropped=11 dup=21 reordered=23 rejected=0 retried=4/0/13248 failovers=0/0 root_in=57126 downlink=70060 cache=0/0 delta=0/0 dropouts=3"},
    {"heterofl/socket/clean", 0x5a0864dbbde16e87ULL,
     "sent=80/137020 delivered=80/137020 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=66960 downlink=70060 cache=0/0 delta=0/0 dropouts=0"},
    {"heterofl/socket/faulted", 0x0d57d50eacc7ab97ULL,
     "sent=77/127129 delivered=87/141198 dropped=11 dup=21 reordered=23 rejected=0 retried=4/0/13248 failovers=0/0 root_in=57126 downlink=70060 cache=0/0 delta=0/0 dropouts=3"},
    {"fedbuff/sim/clean", 0x7555fe91ab8c7334ULL,
     "sent=26/86372 delivered=26/86372 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=43056 downlink=43316 cache=0/0 delta=0/0 dropouts=0"},
    {"fedbuff/sim/faulted", 0xec17a35b458faac4ULL,
     "sent=29/96348 delivered=28/93056 dropped=5 dup=4 reordered=9 rejected=0 retried=3/0/9936 failovers=0/0 root_in=39744 downlink=49980 cache=0/0 delta=0/0 dropouts=2"},
    {"fedbuff/socket/clean", 0x7555fe91ab8c7334ULL,
     "sent=26/86372 delivered=26/86372 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=43056 downlink=43316 cache=0/0 delta=0/0 dropouts=0"},
    {"fedbuff/socket/faulted", 0xec17a35b458faac4ULL,
     "sent=29/96348 delivered=28/93056 dropped=5 dup=4 reordered=9 rejected=0 retried=3/0/9936 failovers=0/0 root_in=39744 downlink=49980 cache=0/0 delta=0/0 dropouts=2"},
    {"server/sim/clean", 0xde11aeb215aee7e0ULL,
     "sent=120/203064 delivered=120/203064 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=100440 downlink=102624 cache=0/0 delta=0/0 dropouts=0"},
    {"server/sim/faulted", 0xf79e4a8f4e7ac418ULL,
     "sent=113/128084 delivered=128/142435 dropped=17 dup=32 reordered=34 rejected=0 retried=4/0/13248 failovers=0/0 root_in=90651 downlink=47492 cache=0/0 delta=18/55132 dropouts=4"},
    {"server/socket/clean", 0xde11aeb215aee7e0ULL,
     "sent=120/203064 delivered=120/203064 dropped=0 dup=0 reordered=0 rejected=0 retried=0/0/0 failovers=0/0 root_in=100440 downlink=102624 cache=0/0 delta=0/0 dropouts=0"},
    {"server/socket/faulted", 0xf79e4a8f4e7ac418ULL,
     "sent=113/128084 delivered=128/142435 dropped=17 dup=32 reordered=34 rejected=0 retried=4/0/13248 failovers=0/0 root_in=90651 downlink=47492 cache=0/0 delta=18/55132 dropouts=4"},
};

DatasetConfig golden_data() {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = 10;
  cfg.mean_train_samples = 14;
  cfg.min_train_samples = 8;
  cfg.eval_samples = 6;
  cfg.noise = 0.35;
  cfg.seed = 23;
  return cfg;
}

std::vector<DeviceProfile> golden_fleet(int n) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 5;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec golden_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

/// The faulted scenario: every wire fault at once, a retry budget, client
/// dropouts, leaf deaths (which a flat fabric has no leaves to suffer) and
/// delta downlinks.
void apply_faults(FaultConfig& faults, FabricTopology& topo) {
  faults.drop_prob = 0.2;
  faults.dup_prob = 0.25;
  faults.reorder_prob = 0.3;
  faults.dropout_prob = 0.2;
  faults.leaf_death_prob = 0.5;
  faults.seed = 0xfab1c5eedULL;
  topo.max_retries = 2;
  topo.ack_timeout_s = 30.0;
  topo.delta_downlink = true;
}

std::uint64_t hash_weights(std::uint64_t h, const WeightSet& ws) {
  for (const Tensor& t : ws) {
    for (int d : t.shape()) h = fnv1a_pod(h, d);
    h = fnv1a(h, t.data(), static_cast<std::size_t>(t.numel()) * 4);
  }
  return h;
}

std::uint64_t hash_history(std::uint64_t h,
                           const std::vector<RoundRecord>& hist) {
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
  return h;
}

std::uint64_t hash_costs(std::uint64_t h, const CostMeter& c) {
  h = fnv1a_pod(h, c.total_macs());
  h = fnv1a_pod(h, c.network_bytes());
  return h;
}

std::string counters(const FabricStats& s) {
  std::ostringstream os;
  os << "sent=" << s.frames_sent.load() << "/" << s.bytes_sent.load()
     << " delivered=" << s.frames_delivered.load() << "/"
     << s.bytes_delivered.load() << " dropped=" << s.frames_dropped.load()
     << " dup=" << s.frames_duplicated.load()
     << " reordered=" << s.frames_reordered.load()
     << " rejected=" << s.frames_rejected.load()
     << " retried=" << s.frames_retried.load() << "/"
     << s.retry_bytes_down.load() << "/" << s.retry_bytes_up.load()
     << " failovers=" << s.leaf_failovers.load() << "/"
     << s.failover_bytes_down.load() << " root_in=" << s.bytes_root_in.load()
     << " downlink=" << s.bytes_downlink.load()
     << " cache=" << s.cache_hits.load() << "/" << s.cache_saved_bytes.load()
     << " delta=" << s.delta_downlinks.load() << "/"
     << s.delta_saved_bytes.load()
     << " dropouts=" << s.client_dropouts.load();
  return os.str();
}

struct Outcome {
  std::uint64_t hash = kFnvOffset;
  std::string counters;
};

Outcome run_fedavg(const FederatedDataset& data, bool socket, bool faulted) {
  Rng rng(31);
  Model init(golden_model(), rng);
  SessionConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 4;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 2;
  cfg.eval_clients = 6;
  cfg.seed = 11;
  cfg.use_fabric = true;
  if (socket) cfg.with_socket_transport();
  if (faulted) apply_faults(cfg.fabric_faults, cfg.topology);
  FederationEngine runner(
      std::make_unique<FedAvgStrategy>(init, FedAvgOptions{}), data,
      golden_fleet(data.num_clients()), cfg);
  runner.run();
  Outcome o;
  o.hash = hash_weights(
      o.hash, runner.strategy_as<FedAvgStrategy>().model().weights());
  o.hash = hash_history(o.hash, runner.history());
  o.hash = hash_costs(o.hash, runner.costs());
  o.counters = counters(runner.fabric()->stats());
  return o;
}

Outcome run_heterofl(const FederatedDataset& data, bool socket,
                     bool faulted) {
  SessionConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 5;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 2;
  cfg.eval_clients = 6;
  cfg.seed = 7;
  cfg.use_fabric = true;
  if (socket) cfg.with_socket_transport();
  if (faulted) apply_faults(cfg.fabric_faults, cfg.topology);
  FederationEngine runner(
      std::make_unique<HeteroFLStrategy>(golden_model()), data,
      golden_fleet(data.num_clients()), cfg);
  runner.run();
  Outcome o;
  o.hash = hash_weights(
      o.hash, runner.strategy_as<HeteroFLStrategy>().global().weights());
  o.hash = hash_history(o.hash, runner.history());
  o.hash = hash_costs(o.hash, runner.costs());
  o.counters = counters(runner.fabric()->stats());
  return o;
}

Outcome run_fedbuff(const FederatedDataset& data, bool socket, bool faulted) {
  Rng rng(8);
  Model init(golden_model(), rng);
  SessionConfig cfg;
  cfg.mode = SessionMode::Async;
  cfg.async.concurrency = 3;
  cfg.async.buffer_size = 2;
  cfg.async.aggregations = 5;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 3;
  cfg.eval_clients = 6;
  cfg.seed = 42;
  cfg.use_fabric = true;
  if (socket) cfg.with_socket_transport();
  if (faulted) apply_faults(cfg.fabric_faults, cfg.topology);
  FederationEngine engine(
      std::make_unique<FedBuffStrategy>(init, ServerOptKind::FedAvg), data,
      golden_fleet(data.num_clients()), cfg);
  engine.run();
  Outcome o;
  o.hash = hash_weights(o.hash,
                        engine.strategy_as<FedBuffStrategy>(
                            ).model().weights());
  o.hash = hash_history(o.hash, engine.history());
  o.hash = hash_costs(o.hash, engine.costs());
  o.hash = fnv1a_pod(o.hash, engine.now_s());
  o.counters = counters(engine.fabric()->stats());
  return o;
}

std::uint64_t hash_exchange(std::uint64_t h, const ExchangeResult& ex) {
  for (std::size_t i = 0; i < ex.outcomes.size(); ++i) {
    h = fnv1a_pod(h, static_cast<int>(ex.outcomes[i]));
    if (ex.outcomes[i] != ClientOutcome::Trained) continue;
    const LocalTrainResult& r = ex.results[i];
    h = hash_weights(h, r.delta);
    h = fnv1a_pod(h, r.avg_loss);
    h = fnv1a_pod(h, r.num_samples);
    h = fnv1a_pod(h, r.macs_used);
  }
  h = fnv1a_pod(h, ex.retry_down_bytes);
  h = fnv1a_pod(h, ex.retry_up_bytes);
  h = fnv1a_pod(h, ex.failover_down_bytes);
  h = fnv1a_pod(h, ex.leaf_failovers);
  h = fnv1a_pod(h, ex.delta_saved_bytes);
  return h;
}

/// The server driven directly with frozen payloads, so repeat clients get
/// delta ModelDowns: three shared-blob rounds, then two per-task rounds
/// over two same-architecture models, one client holding two slots.
Outcome run_server(const FederatedDataset& data, bool socket, bool faulted) {
  Rng rng(3);
  Model proto(golden_model(), rng);
  Model other(golden_model(), rng);
  LocalTrainConfig local;
  local.steps = 3;
  local.batch = 6;
  FaultConfig faults;
  FabricTopology topo;
  if (faulted) apply_faults(faults, topo);
  FederationServer server(proto, data, golden_fleet(data.num_clients()),
                          local, faults, topo,
                          socket ? TransportKind::Socket : TransportKind::Sim);
  const WeightSet global = proto.weights();
  Outcome o;
  for (std::uint32_t round = 1; round <= 5; ++round) {
    const std::vector<int> clients =
        round <= 3 ? std::vector<int>{0, 1, 2, 3, 4, 5}
                   : std::vector<int>{0, 1, 2, 2, 3, 4};
    Rng fork_root(100 + round);
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < clients.size(); ++i)
      rngs.push_back(fork_root.fork());
    if (round <= 3) {
      o.hash = hash_exchange(o.hash,
                             server.run_round(round, global, clients, rngs));
    } else {
      std::vector<Model*> payloads;
      for (std::size_t i = 0; i < clients.size(); ++i)
        payloads.push_back(i % 2 == 0 ? &proto : &other);
      o.hash = hash_exchange(o.hash,
                             server.run_round(round, payloads, clients, rngs));
    }
  }
  o.counters = counters(server.stats());
  return o;
}

TEST(FlatFabricGolden, FramesBytesAndResultsMatchRecorded) {
  struct TierGuard {
    GemmBackend prev = gemm_backend();
    ~TierGuard() { set_gemm_backend(prev); }
  } guard;
  set_gemm_backend(GemmBackend::Scalar);
  const bool print = std::getenv("FEDTRANS_GOLDEN_PRINT") != nullptr;

  const FederatedDataset data = FederatedDataset::generate(golden_data());
  struct Session {
    const char* name;
    Outcome (*run)(const FederatedDataset&, bool, bool);
  };
  for (const Session& s : {Session{"fedavg", run_fedavg},
                           Session{"heterofl", run_heterofl},
                           Session{"fedbuff", run_fedbuff},
                           Session{"server", run_server}}) {
    for (bool socket : {false, true}) {
      for (bool faulted : {false, true}) {
        const std::string name = std::string(s.name) +
                                 (socket ? "/socket" : "/sim") +
                                 (faulted ? "/faulted" : "/clean");
        const Outcome got = s.run(data, socket, faulted);
        char line[512];
        std::snprintf(line, sizeof line,
                      "{\"%s\", 0x%016llxULL,\n     \"%s\"},", name.c_str(),
                      static_cast<unsigned long long>(got.hash),
                      got.counters.c_str());
        if (print) std::printf("    %s\n", line);
        const Golden* want = nullptr;
        for (const Golden& g : kGoldens)
          if (name == g.name) want = &g;
        if (print) continue;
        ASSERT_NE(want, nullptr) << "no golden for " << line;
        EXPECT_EQ(got.hash, want->hash)
            << "weights, history or billing moved: " << line;
        EXPECT_EQ(got.counters, want->counters)
            << "fabric traffic moved: " << name;
      }
    }
  }
}

}  // namespace
}  // namespace fedtrans
