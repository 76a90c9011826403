// Federation-fabric tests: (1) a fault-free fabric run — wire protocol +
// simulated transport + multithreaded FederationServer — is bitwise
// identical to the direct in-process FedAvg path, across seeds and thread
// counts; (2) under message loss and client dropout, rounds still terminate
// and every lost update is accounted in CostMeter/RoundRecord; (3) the
// simulated transport's fault injection is deterministic and its byte
// accounting is exact; (4) hierarchical rounds — 2-level shards and deep
// (3/4-level) trees of any branching — are bitwise identical to flat ones
// for FedAvg, FedTrans and HeteroFL; (5) the retry policy resends lost
// UpdateUps within max_retries and counts exhausted retries as lost
// updates, with resend traffic billed; (6) fabric-backed async (FedBuff)
// sessions complete over real messages with delivery-time completion
// ordering, flat or routed through the tree (bitwise-equal when
// fault-free); (7) numeric partial aggregation matches flat reductions
// within 1e-5 relative tolerance, keeps metrics/billing bitwise, and is
// bitwise self-consistent across thread counts (and across shard counts
// with singleton leaves); (8) dead leaves fail over to siblings with the
// redirect billed and recorded.

#include <gtest/gtest.h>

#include "baselines/hetero_fl.hpp"
#include "common/thread_pool.hpp"
#include "core/trainer.hpp"
#include "fl/async.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 12) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 16;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 17;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n, std::uint64_t seed = 9) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = seed;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

FlRunConfig base_cfg(std::uint64_t seed) {
  FlRunConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 2;
  cfg.eval_clients = 6;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(FedAvgRunner& a, FedAvgRunner& b) {
  auto wa = a.model().weights();
  auto wb = b.model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;

  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t r = 0; r < a.history().size(); ++r) {
    const auto& ra = a.history()[r];
    const auto& rb = b.history()[r];
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.avg_loss, rb.avg_loss) << "round " << r;
    EXPECT_EQ(ra.cum_macs, rb.cum_macs) << "round " << r;
    EXPECT_EQ(ra.round_time_s, rb.round_time_s) << "round " << r;
    EXPECT_EQ(ra.accuracy, rb.accuracy) << "round " << r;
    EXPECT_EQ(ra.participants, rb.participants) << "round " << r;
    EXPECT_EQ(ra.lost_updates, rb.lost_updates) << "round " << r;
    EXPECT_EQ(ra.leaf_failovers, rb.leaf_failovers) << "round " << r;
  }
  EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
  EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
}

TEST(FabricParityTest, FaultFreeFabricMatchesInProcessBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);

    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      FlRunConfig in_proc = base_cfg(seed);
      FedAvgRunner a(init, data, fleet, in_proc);
      a.run();

      FlRunConfig on_fabric = base_cfg(seed);
      on_fabric.use_fabric = true;
      FedAvgRunner b(init, data, fleet, on_fabric);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_EQ(b.fabric()->phase(), FederationServer::Phase::Aggregate)
          << "round state machine should rest in its final phase";
      EXPECT_EQ(b.fabric()->stats().frames_dropped.load(), 0u);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u)
          << "undecodable frames on a clean transport mean a codec bug";
      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(FabricParityTest, FabricWithStragglerPolicyMatchesInProcess) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);
  Rng rng(5);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(21);
  cfg.overcommit = 0.5;
  cfg.deadline_quantile = 0.7;  // deadline-trim the straggler tail
  FedAvgRunner a(init, data, fleet, cfg);
  a.run();

  FlRunConfig fab = cfg;
  fab.use_fabric = true;
  FedAvgRunner b(init, data, fleet, fab);
  b.run();
  expect_identical(a, b);
  // With over-selection some rounds must actually drop stragglers.
  int lost = 0;
  for (const auto& rec : b.history()) lost += rec.lost_updates;
  EXPECT_GT(lost, 0);
}

TEST(FabricFaultTest, RoundsTerminateAndLossesAreAccounted) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 5;
  cfg.eval_every = 0;
  cfg.overcommit = 0.4;
  cfg.deadline_quantile = 0.8;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.25;
  cfg.fabric_faults.dup_prob = 0.15;
  cfg.fabric_faults.reorder_prob = 0.2;
  cfg.fabric_faults.dropout_prob = 0.25;
  cfg.fabric_faults.seed = 1234;

  FedAvgRunner runner(init, data, fleet, cfg);
  runner.run();  // must terminate despite lost invitations/models/updates

  ASSERT_EQ(runner.history().size(), static_cast<std::size_t>(cfg.rounds));
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    EXPECT_GE(rec.participants, 0);
    EXPECT_GE(rec.lost_updates, 0);
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0) << "some updates must still get through";
  EXPECT_GT(lost, 0) << "heavy fault injection must lose some updates";

  // CostMeter consistency with the per-round records: each aggregated
  // update moved the model down and up (2 × model bytes, no compression);
  // each lost update still burned its downlink.
  const double model_bytes =
      static_cast<double>(runner.model().param_bytes());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost), 1.0);

  // Fault machinery actually fired.
  ASSERT_NE(runner.fabric(), nullptr);
  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.frames_dropped.load(), 0u);
  EXPECT_GT(stats.frames_duplicated.load(), 0u);
  EXPECT_GT(stats.frames_reordered.load(), 0u);
  EXPECT_GT(stats.client_dropouts.load(), 0u);
  EXPECT_GT(stats.frames_sent.load(), stats.frames_dropped.load());
  // Fault injection drops/duplicates/reorders whole frames — it never
  // corrupts bytes, so nothing should have failed to decode.
  EXPECT_EQ(stats.frames_rejected.load(), 0u);
}

TEST(FabricFaultTest, FaultRunsAreDeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = tiny_fleet(8);
  Rng rng(2);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  FlRunConfig cfg = base_cfg(13);
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.3;
  cfg.fabric_faults.dropout_prob = 0.2;

  ThreadPool::set_global_threads(1);
  FedAvgRunner a(init, data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FedAvgRunner b(init, data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  expect_identical(a, b);
  EXPECT_EQ(a.fabric()->stats().frames_dropped.load(),
            b.fabric()->stats().frames_dropped.load());
}

TEST(SimTransportTest, DeterministicFaultsAndExactByteAccounting) {
  auto fleet = tiny_fleet(4);
  FaultConfig faults;
  faults.drop_prob = 0.5;
  faults.seed = 77;

  auto run_once = [&] {
    SimTransport net(fleet, faults);
    std::vector<bool> delivered;
    for (int i = 0; i < 32; ++i)
      delivered.push_back(net.send(kServerId, i % 4,
                                   std::string("payload-") +
                                       std::to_string(i)));
    return std::make_pair(delivered, net.stats().bytes_delivered.load());
  };
  auto [d1, bytes1] = run_once();
  auto [d2, bytes2] = run_once();
  EXPECT_EQ(d1, d2) << "fault draws must be schedule-independent";
  EXPECT_EQ(bytes1, bytes2);

  // Delivered frames arrive in (deliver_at, seq) order per mailbox and
  // byte counters match exactly what was enqueued.
  SimTransport net(fleet, FaultConfig{});
  EXPECT_TRUE(net.send(kServerId, 1, "aaaa"));
  EXPECT_TRUE(net.send(kServerId, 1, "bb"));
  EXPECT_TRUE(net.send(1, kServerId, "cc", /*sent_at_s=*/2.0));
  auto inbox = net.drain(1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_LE(inbox[0].deliver_at_s, inbox[1].deliver_at_s);
  EXPECT_EQ(net.stats().bytes_sent.load(), 8u);
  EXPECT_EQ(net.stats().bytes_delivered.load(), 8u);
  auto server_box = net.drain(kServerId);
  ASSERT_EQ(server_box.size(), 1u);
  EXPECT_GT(server_box[0].deliver_at_s, 2.0);
  EXPECT_FALSE(net.try_recv(kServerId).has_value());
}

TEST(SimTransportTest, ReorderingDelaysDeliveryTimestamps) {
  auto fleet = tiny_fleet(2);
  SimTransport clean(fleet, FaultConfig{});
  FaultConfig faults;
  faults.reorder_prob = 1.0;
  SimTransport shuffled(fleet, faults);
  ASSERT_TRUE(clean.send(kServerId, 0, "0123456789abcdef"));
  ASSERT_TRUE(shuffled.send(kServerId, 0, "0123456789abcdef"));
  auto a = clean.drain(0);
  auto b = shuffled.drain(0);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // A reordered frame lands one extra link transfer later in simulated
  // time — twice the clean latency for a single frame.
  EXPECT_DOUBLE_EQ(b[0].deliver_at_s, 2.0 * a[0].deliver_at_s);
  EXPECT_EQ(shuffled.stats().frames_reordered.load(), 1u);
}

TEST(SimTransportTest, DuplicatesAreDeliveredTwiceAndDeduplicatedUpstream) {
  auto fleet = tiny_fleet(2);
  FaultConfig faults;
  faults.dup_prob = 1.0;
  SimTransport net(fleet, faults);
  EXPECT_TRUE(net.send(kServerId, 0, "hello"));
  auto inbox = net.drain(0);
  EXPECT_EQ(inbox.size(), 2u);
  EXPECT_EQ(net.stats().frames_duplicated.load(), 1u);
}

TEST(SimTransportTest, AggregatorEndpointsAreBackboneLinks) {
  auto fleet = tiny_fleet(2);
  SimTransport net(fleet, FaultConfig{}, /*num_aggregators=*/2);
  // Root ↔ aggregator traffic rides the free backbone: zero latency.
  EXPECT_TRUE(net.send(kServerId, aggregator_id(0), "bundle"));
  EXPECT_TRUE(net.send(aggregator_id(1), kServerId, "partial", 3.0));
  auto agg0 = net.drain(aggregator_id(0));
  ASSERT_EQ(agg0.size(), 1u);
  EXPECT_DOUBLE_EQ(agg0[0].deliver_at_s, 0.0);
  auto root = net.drain(kServerId);
  ASSERT_EQ(root.size(), 1u);
  EXPECT_DOUBLE_EQ(root[0].deliver_at_s, 3.0);
  // Aggregator → client keeps the client's radio latency.
  EXPECT_TRUE(net.send(aggregator_id(0), 1, "0123456789abcdef"));
  auto client = net.drain(1);
  ASSERT_EQ(client.size(), 1u);
  EXPECT_GT(client[0].deliver_at_s, 0.0);
}

// ---------------------------------------------------------------------------
// Sharded (hierarchical) aggregation: a 2-level tree of shard aggregators
// must be bitwise identical to the flat FederationServer when fault-free —
// the bundles carry per-task updates verbatim and the engine's fixed-order
// reduction is untouched.

TEST(ShardedParityTest, FedAvgShardedMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);

    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      FlRunConfig flat = base_cfg(seed);
      flat.use_fabric = true;
      FedAvgRunner a(init, data, fleet, flat);
      a.run();

      FlRunConfig sharded = base_cfg(seed);
      sharded.use_fabric = true;
      sharded.topology.levels = 2;
      sharded.topology.shards = 3;
      FedAvgRunner b(init, data, fleet, sharded);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_EQ(b.fabric()->tree().levels(), 2);
      EXPECT_EQ(b.fabric()->tree().num_aggregators(), 3);
      EXPECT_EQ(b.fabric()->stats().frames_dropped.load(), 0u);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u)
          << "undecodable frames on a clean transport mean a codec bug";
      EXPECT_EQ(b.fabric()->stats().frames_retried.load(), 0u);
      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ShardedParityTest, ShardCountSweepAllMatchInProcess) {
  // 1, 2 and 4 shards (including the degenerate one-leaf tree) all
  // reproduce the in-process run exactly; the root's downlink fan-out
  // shrinks with the shard count while client traffic stays put.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(9);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(5);
  FedAvgRunner ref(init, data, fleet, cfg);
  ref.run();

  for (int shards : {1, 2, 4}) {
    FlRunConfig sh = base_cfg(5);
    sh.use_fabric = true;
    sh.topology.levels = 2;
    sh.topology.shards = shards;
    FedAvgRunner b(init, data, fleet, sh);
    b.run();
    expect_identical(ref, b);
  }
}

TEST(ShardedParityTest, FedTransShardedMatchesFlatBitwise) {
  // The growing multi-model family over the sharded tree: family payloads
  // ride the ShardDown body table, partial aggregates reassemble at the
  // root, and the trajectory (including transformations) stays bit-exact.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {13ULL, 29ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      FedTransConfig cfg;
      cfg.rounds = 6;
      cfg.clients_per_round = 4;
      cfg.local.steps = 3;
      cfg.local.batch = 6;
      cfg.gamma = 2;
      cfg.doc_delta = 2;
      cfg.beta = 10.0;
      cfg.act_window = 2;
      cfg.max_models = 3;
      cfg.seed = seed;
      cfg.use_fabric = true;

      FedTransTrainer a(tiny_model(), data, fleet, cfg);
      cfg.topology.levels = 2;
      cfg.topology.shards = 2;
      FedTransTrainer b(tiny_model(), data, fleet, cfg);
      a.run();
      b.run();

      ASSERT_EQ(a.num_models(), b.num_models());
      EXPECT_GE(a.num_models(), 2) << "transformation should have fired";
      for (int k = 0; k < a.num_models(); ++k) {
        auto wa = a.model(k).weights();
        auto wb = b.model(k).weights();
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t i = 0; i < wa.size(); ++i)
          EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
              << "model " << k << " tensor " << i;
      }
      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].accuracy, b.history()[r].accuracy);
      }
      EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
      EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ShardedParityTest, HeteroFLShardedMatchesFlatBitwise) {
  // Ladder submodels over the tree: each shard bundle's body table holds
  // one encoding per capacity level present in the shard.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {7ULL, 19ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      BaselineConfig cfg;
      cfg.rounds = 4;
      cfg.clients_per_round = 5;
      cfg.local.steps = 3;
      cfg.local.batch = 6;
      cfg.eval_every = 2;
      cfg.eval_clients = 6;
      cfg.seed = seed;
      cfg.use_fabric = true;

      HeteroFLRunner a(tiny_model(), data, fleet, cfg);
      cfg.topology.levels = 2;
      cfg.topology.shards = 3;
      HeteroFLRunner b(tiny_model(), data, fleet, cfg);
      a.run();
      b.run();

      auto wa = a.global().weights();
      auto wb = b.global().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
      ASSERT_EQ(a.engine().history().size(), b.engine().history().size());
      for (std::size_t r = 0; r < a.engine().history().size(); ++r) {
        EXPECT_EQ(a.engine().history()[r].avg_loss,
                  b.engine().history()[r].avg_loss);
        EXPECT_EQ(a.engine().history()[r].accuracy,
                  b.engine().history()[r].accuracy);
      }
      EXPECT_EQ(a.engine().costs().network_bytes(),
                b.engine().costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(ShardedFaultTest, ShardedFaultRunsTerminateDeterministically) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 2;
  cfg.fabric_faults.drop_prob = 0.2;
  cfg.fabric_faults.dup_prob = 0.1;
  cfg.fabric_faults.dropout_prob = 0.2;
  cfg.fabric_faults.seed = 321;

  ThreadPool::set_global_threads(1);
  FedAvgRunner a(init, data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FedAvgRunner b(init, data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  expect_identical(a, b);
  int participants = 0, lost = 0;
  for (const auto& rec : a.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0);
  EXPECT_GT(lost, 0);
}

TEST(ShardedFaultTest, ShardedRetriesRecoverBundlesAndReconcileBilling) {
  // The sharded-only retry paths: lost ShardDown bundles (downlink,
  // retry_bytes_down) and lost PartialUp bundles / UpdateUps (uplink) are
  // resent and billed; the CostMeter reconciles byte-exactly against the
  // transport's retry counters, same as the flat invariant.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 6;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.topology.max_retries = 2;
  cfg.topology.ack_timeout_s = 5.0;
  cfg.fabric_faults.drop_prob = 0.3;
  cfg.fabric_faults.seed = 42;

  FedAvgRunner runner(init, data, fleet, cfg);
  runner.run();

  ASSERT_EQ(runner.history().size(), 6u);
  int participants = 0, lost = 0;
  for (const auto& rec : runner.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
  }
  EXPECT_GT(participants, 0);

  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.frames_retried.load(), 0u);
  EXPECT_GT(stats.retry_bytes_down.load(), 0u)
      << "a 30% drop rate over 18 ShardDown bundles must lose at least one";
  const double model_bytes =
      static_cast<double>(runner.model().param_bytes());
  const double retry_bytes =
      static_cast<double>(stats.retry_bytes_down.load()) +
      static_cast<double>(stats.retry_bytes_up.load());
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost) + retry_bytes, 1.0);
}

// ---------------------------------------------------------------------------
// Retry / ack-timeout policy: lost UpdateUps are resent (flagged on the
// wire, billed through CostMeter); exhausted budgets surface as
// RoundRecord::lost_updates.

TEST(RetryPolicyTest, DroppedUpdatesAreResentWithinBudget) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 4;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.25;
  cfg.fabric_faults.seed = 77;

  FedAvgRunner no_retry(init, data, fleet, cfg);
  no_retry.run();

  cfg.topology.max_retries = 3;
  cfg.topology.ack_timeout_s = 5.0;
  FedAvgRunner with_retry(init, data, fleet, cfg);
  with_retry.run();

  int p0 = 0, p1 = 0, lost1 = 0;
  for (const auto& rec : no_retry.history()) p0 += rec.participants;
  for (const auto& rec : with_retry.history()) {
    p1 += rec.participants;
    lost1 += rec.lost_updates;
  }
  const FabricStats& stats = with_retry.fabric()->stats();
  EXPECT_GT(stats.frames_retried.load(), 0u)
      << "drop_prob = 0.25 over 4 rounds must lose at least one UpdateUp";
  EXPECT_GT(p1, p0) << "retries must recover updates the no-retry run lost";
  ASSERT_EQ(with_retry.history().size(), 4u)
      << "rounds must complete under the retry policy";

  // Billing: every aggregated update moved the model down and up once, every
  // lost update spent its downlink, and every resend attempt is billed on
  // top — exactly the transport's retry byte counters.
  const double model_bytes =
      static_cast<double>(with_retry.model().param_bytes());
  const double retry_bytes =
      static_cast<double>(stats.retry_bytes_down.load()) +
      static_cast<double>(stats.retry_bytes_up.load());
  EXPECT_GT(retry_bytes, 0.0);
  EXPECT_NEAR(with_retry.costs().network_bytes(),
              model_bytes * (2.0 * p1 + lost1) + retry_bytes, 1.0);
}

TEST(RetryPolicyTest, ExhaustedRetriesCountAsLostUpdates) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.55;
  cfg.fabric_faults.seed = 123;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 5.0;

  FedAvgRunner runner(init, data, fleet, cfg);
  runner.run();

  ASSERT_EQ(runner.history().size(), 5u);
  int lost = 0;
  for (const auto& rec : runner.history()) lost += rec.lost_updates;
  EXPECT_GT(lost, 0)
      << "a 0.55 drop rate with one retry must exhaust some budgets";
  EXPECT_GT(runner.fabric()->stats().frames_retried.load(), 0u);

  // Determinism: the same faulty retry run replays bit-identically.
  FedAvgRunner again(init, data, fleet, cfg);
  again.run();
  expect_identical(runner, again);
}

// ---------------------------------------------------------------------------
// Fabric-backed async FedBuff: the event loop runs over real ModelDown /
// UpdateUp messages, completions are ordered by server-side delivery time,
// and ack-timeouts replace lost clients.

TEST(AsyncFabricTest, FaultFreeSessionCompletesWithDeliveryOrdering) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  AsyncRunConfig cfg;
  cfg.concurrency = 3;
  cfg.buffer_size = 2;
  cfg.aggregations = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 3;
  cfg.eval_clients = 6;
  cfg.seed = 42;
  cfg.use_fabric = true;

  FedBuffRunner runner(init, data, fleet, cfg);
  runner.run();

  EXPECT_EQ(runner.aggregations_done(), cfg.aggregations);
  ASSERT_EQ(runner.history().size(),
            static_cast<std::size_t>(cfg.aggregations));
  // Delivery-time completion ordering: versions ship at nondecreasing
  // simulated instants, and no update was lost on a clean transport.
  double prev = 0.0;
  for (const auto& rec : runner.history()) {
    EXPECT_GE(rec.round_time_s, prev);
    prev = rec.round_time_s;
    EXPECT_EQ(rec.lost_updates, 0);
  }
  EXPECT_GT(runner.now_s(), 0.0);
  EXPECT_GE(runner.mean_staleness(), 0.0);

  const FederationServer* fabric = runner.engine().fabric();
  ASSERT_NE(fabric, nullptr);
  EXPECT_GT(fabric->stats().frames_sent.load(), 0u);
  EXPECT_EQ(fabric->stats().frames_dropped.load(), 0u);
  EXPECT_EQ(fabric->stats().frames_rejected.load(), 0u)
      << "undecodable frames on a clean transport mean a codec bug";

  // The engine billed each absorbed update's down+up transfer through the
  // strategy, so the meter moves.
  EXPECT_GT(runner.costs().network_bytes(), 0.0);
  EXPECT_GT(runner.costs().total_macs(), 0.0);
}

TEST(AsyncFabricTest, DeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data(8));
  auto fleet = tiny_fleet(8);
  Rng rng(2);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  AsyncRunConfig cfg;
  cfg.concurrency = 3;
  cfg.buffer_size = 2;
  cfg.aggregations = 5;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 13;
  cfg.use_fabric = true;

  ThreadPool::set_global_threads(1);
  FedBuffRunner a(init, data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FedBuffRunner b(init, data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  EXPECT_EQ(a.now_s(), b.now_s());
  auto wa = a.model().weights();
  auto wb = b.model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t r = 0; r < a.history().size(); ++r)
    EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
}

TEST(AsyncFabricTest, FaultyAsyncSessionAccountsLostUpdates) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  AsyncRunConfig cfg;
  cfg.concurrency = 4;
  cfg.buffer_size = 2;
  cfg.aggregations = 6;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 7;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.3;
  cfg.fabric_faults.dropout_prob = 0.15;
  cfg.fabric_faults.seed = 55;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 30.0;

  FedBuffRunner runner(init, data, fleet, cfg);
  runner.run();  // must terminate: timeouts replace lost clients

  EXPECT_EQ(runner.aggregations_done(), cfg.aggregations);
  int lost = 0;
  for (const auto& rec : runner.history()) lost += rec.lost_updates;
  EXPECT_GT(lost, 0) << "heavy fault injection must lose some updates";
  const FabricStats& stats = runner.engine().fabric()->stats();
  EXPECT_GT(stats.frames_dropped.load(), 0u);
  EXPECT_GT(stats.frames_retried.load(), 0u);
  EXPECT_EQ(stats.frames_rejected.load(), 0u);

  // The ack-timeout is retry-aware (one timeout per allowed uplink
  // attempt), so a resent update can actually land and be folded in —
  // the same session without a retry budget must lose strictly more.
  cfg.topology.max_retries = 0;
  FedBuffRunner no_retry(init, data, fleet, cfg);
  no_retry.run();
  int lost0 = 0;
  for (const auto& rec : no_retry.history()) lost0 += rec.lost_updates;
  EXPECT_LT(lost, lost0)
      << "retries must recover updates the no-retry run times out on";
}

// ---------------------------------------------------------------------------
// Tree shape and topology validation: a flat topology is the root alone,
// its own single leaf; an invalid topology fails when the session is built,
// not at its first round.

TEST(FabricTreeTest, OneLevelTreeIsTheRootAlone) {
  FabricTopology flat;
  flat.shards = 4;  // ignored without aggregator tiers
  const FabricTree tree(flat);
  EXPECT_EQ(tree.levels(), 1);
  EXPECT_EQ(tree.leaves(), 1);
  EXPECT_EQ(tree.num_aggregators(), 0);
  EXPECT_EQ(tree.leaf_id(0), kServerId);
  EXPECT_EQ(tree.tier_width(0), 1);
  EXPECT_EQ(tree.leaf_range(0, 0), std::make_pair(0, 1));
  EXPECT_EQ(tree.sibling_range(0), std::make_pair(0, 1));

  FabricTopology two;
  two.levels = 2;
  two.shards = 3;
  const FabricTree t2(two);
  EXPECT_EQ(t2.leaves(), 3);
  EXPECT_EQ(t2.num_aggregators(), 3);
  EXPECT_EQ(t2.tier_width(0), 1);
  EXPECT_EQ(t2.leaf_id(0), aggregator_id(0));
  EXPECT_EQ(t2.parent_id(1, 2), kServerId);
}

TEST(TopologyValidationTest, FlatPartialAggregationFailsAtConstruction) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(3);
  cfg.use_fabric = true;
  cfg.topology.levels = 1;
  cfg.topology.partial_aggregation = true;
  EXPECT_THROW(FedAvgRunner(init, data, fleet, cfg), Error);

  FlRunConfig bad_levels = base_cfg(3);
  bad_levels.use_fabric = true;
  bad_levels.topology.levels = 7;
  EXPECT_THROW(FedAvgRunner(init, data, fleet, bad_levels), Error);

  FlRunConfig bad_retries = base_cfg(3);
  bad_retries.use_fabric = true;
  bad_retries.topology.ack_timeout_s = 0.0;
  EXPECT_THROW(FedAvgRunner(init, data, fleet, bad_retries), Error);

  // The topology is only consulted by fabric sessions.
  FlRunConfig in_process = cfg;
  in_process.use_fabric = false;
  EXPECT_NO_THROW(FedAvgRunner(init, data, fleet, in_process));
}

// ---------------------------------------------------------------------------
// Deep aggregation trees (levels >= 3): verbatim bundles split down the
// interior tiers and merge back up must leave every round bitwise identical
// to the flat fabric (which is itself bitwise identical to in-process).

TEST(DeepTreeParityTest, FedAvgThreeLevelMatchesInProcessBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      FlRunConfig in_proc = base_cfg(seed);
      FedAvgRunner a(init, data, fleet, in_proc);
      a.run();

      FlRunConfig tree = base_cfg(seed);
      tree.use_fabric = true;
      tree.topology.levels = 3;
      tree.topology.shards = 4;
      tree.topology.branching = 2;
      FedAvgRunner b(init, data, fleet, tree);
      b.run();

      ASSERT_NE(b.fabric(), nullptr);
      EXPECT_EQ(b.fabric()->tree().levels(), 3);
      EXPECT_EQ(b.fabric()->tree().num_aggregators(), 4 + 2);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(DeepTreeParityTest, DepthAndBranchingSweepAllMatchInProcess) {
  // 3-level and 4-level trees, branching 2/3 and the auto fan-out, plus a
  // degenerate chain (branching 1): every fault-free shape reproduces the
  // in-process run exactly.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(9);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(5);
  FedAvgRunner ref(init, data, fleet, cfg);
  ref.run();

  struct Shape {
    int levels, shards, branching;
  };
  for (const Shape& s : {Shape{3, 4, 2}, Shape{3, 6, 3}, Shape{3, 5, 0},
                         Shape{4, 8, 2}, Shape{4, 3, 1}}) {
    FlRunConfig tree = base_cfg(5);
    tree.use_fabric = true;
    tree.topology.levels = s.levels;
    tree.topology.shards = s.shards;
    tree.topology.branching = s.branching;
    FedAvgRunner b(init, data, fleet, tree);
    b.run();
    expect_identical(ref, b);
    EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u)
        << "levels=" << s.levels << " shards=" << s.shards
        << " branching=" << s.branching;
  }
}

TEST(DeepTreeParityTest, FedTransThreeLevelMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {13ULL, 29ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      FedTransConfig cfg;
      cfg.rounds = 6;
      cfg.clients_per_round = 4;
      cfg.local.steps = 3;
      cfg.local.batch = 6;
      cfg.gamma = 2;
      cfg.doc_delta = 2;
      cfg.beta = 10.0;
      cfg.act_window = 2;
      cfg.max_models = 3;
      cfg.seed = seed;
      cfg.use_fabric = true;

      FedTransTrainer a(tiny_model(), data, fleet, cfg);
      cfg.topology.levels = 3;
      cfg.topology.shards = 4;
      cfg.topology.branching = 2;
      FedTransTrainer b(tiny_model(), data, fleet, cfg);
      a.run();
      b.run();

      ASSERT_EQ(a.num_models(), b.num_models());
      for (int k = 0; k < a.num_models(); ++k) {
        auto wa = a.model(k).weights();
        auto wb = b.model(k).weights();
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t i = 0; i < wa.size(); ++i)
          EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
              << "model " << k << " tensor " << i;
      }
      EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
      EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(DeepTreeParityTest, HeteroFLThreeLevelMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);
  const int prev_threads = ThreadPool::global().size();
  for (std::uint64_t seed : {7ULL, 19ULL}) {
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      BaselineConfig cfg;
      cfg.rounds = 4;
      cfg.clients_per_round = 5;
      cfg.local.steps = 3;
      cfg.local.batch = 6;
      cfg.eval_every = 2;
      cfg.eval_clients = 6;
      cfg.seed = seed;
      cfg.use_fabric = true;

      HeteroFLRunner a(tiny_model(), data, fleet, cfg);
      cfg.topology.levels = 3;
      cfg.topology.shards = 4;
      cfg.topology.branching = 2;
      HeteroFLRunner b(tiny_model(), data, fleet, cfg);
      a.run();
      b.run();

      auto wa = a.global().weights();
      auto wb = b.global().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
      EXPECT_EQ(a.engine().costs().network_bytes(),
                b.engine().costs().network_bytes());
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

// ---------------------------------------------------------------------------
// Numeric partial aggregation: pre-summing at the aggregators must match
// the flat reduction to numeric tolerance, keep the metric trajectory
// (losses, participants, billing) bitwise, and stay bitwise
// self-consistent across thread counts — and across shard counts when each
// leaf holds at most one update (the reduction order is then slot order
// regardless of the tree).

double max_rel_diff(const WeightSet& a, const WeightSet& b) {
  EXPECT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, testing::max_abs_diff(a[i], b[i]));
    for (std::int64_t j = 0; j < a[i].numel(); ++j)
      den = std::max(den, std::fabs(static_cast<double>(a[i][j])));
  }
  return num / std::max(den, 1e-12);
}

TEST(PartialAggregationTest, FedAvgNumericMatchesFlatWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig flat = base_cfg(21);
  flat.rounds = 4;
  flat.clients_per_round = 6;
  flat.eval_every = 0;
  FedAvgRunner a(init, data, fleet, flat);
  a.run();

  FlRunConfig numeric = flat;
  numeric.use_fabric = true;
  numeric.topology.levels = 2;
  numeric.topology.shards = 3;
  numeric.topology.partial_aggregation = true;
  FedAvgRunner b(init, data, fleet, numeric);
  b.run();

  EXPECT_LT(max_rel_diff(a.model().weights(), b.model().weights()), 1e-5);
  // Metrics ride the tree verbatim, so participant counts and billing are
  // bitwise identical; losses track the (numerically perturbed) weights,
  // so round 0 is bitwise and later rounds tolerance-close.
  ASSERT_EQ(a.history().size(), b.history().size());
  EXPECT_EQ(a.history()[0].avg_loss, b.history()[0].avg_loss);
  for (std::size_t r = 0; r < a.history().size(); ++r) {
    EXPECT_NEAR(a.history()[r].avg_loss, b.history()[r].avg_loss,
                1e-5 * std::max(1.0, std::fabs(a.history()[r].avg_loss)));
    EXPECT_EQ(a.history()[r].participants, b.history()[r].participants);
  }
  EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(PartialAggregationTest, FedTransNumericMatchesFlatWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());

  FedTransConfig cfg;
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 13;

  FedTransTrainer a(tiny_model(), data, fleet, cfg);
  a.run();

  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;
  FedTransTrainer b(tiny_model(), data, fleet, cfg);
  b.run();

  // Per-client losses ride the tree verbatim, so utility learning sees
  // (numerically) the same inputs and the model family grows identically;
  // weights agree to numeric tolerance.
  ASSERT_EQ(a.num_models(), b.num_models());
  for (int k = 0; k < a.num_models(); ++k)
    EXPECT_LT(max_rel_diff(a.model(k).weights(), b.model(k).weights()), 1e-5)
        << "model " << k;
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t r = 0; r < a.history().size(); ++r)
    EXPECT_NEAR(a.history()[r].avg_loss, b.history()[r].avg_loss,
                1e-5 * std::max(1.0, std::fabs(a.history()[r].avg_loss)));
}

TEST(PartialAggregationTest, HeteroFLNumericMatchesFlatWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);

  BaselineConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 19;

  HeteroFLRunner a(tiny_model(), data, fleet, cfg);
  a.run();

  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.topology.partial_aggregation = true;
  HeteroFLRunner b(tiny_model(), data, fleet, cfg);
  b.run();

  EXPECT_LT(max_rel_diff(a.global().weights(), b.global().weights()), 1e-5);
  ASSERT_EQ(a.engine().history().size(), b.engine().history().size());
  for (std::size_t r = 0; r < a.engine().history().size(); ++r)
    EXPECT_NEAR(a.engine().history()[r].avg_loss,
                b.engine().history()[r].avg_loss,
                1e-5 * std::max(1.0, std::fabs(
                                         a.engine().history()[r].avg_loss)));
  EXPECT_EQ(a.engine().costs().network_bytes(),
            b.engine().costs().network_bytes());
}

TEST(PartialAggregationTest, BitwiseAcrossShardCountsWithSingletonLeaves) {
  // With at most one task per leaf the numeric fold order is slot order
  // whatever the shard count, so 2-level trees of 4, 6 and 8 leaves
  // produce bit-identical weights (and repeated runs replay exactly).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(7);
  Model init(tiny_model(), rng);

  auto run_with_shards = [&](int shards) {
    FlRunConfig cfg = base_cfg(33);
    cfg.rounds = 3;
    cfg.clients_per_round = 4;
    cfg.eval_every = 0;
    cfg.use_fabric = true;
    cfg.topology.levels = 2;
    cfg.topology.shards = shards;
    cfg.topology.partial_aggregation = true;
    FedAvgRunner r(init, data, fleet, cfg);
    r.run();
    return r.model().weights();
  };

  const WeightSet w4 = run_with_shards(4);
  for (int shards : {4, 6, 8}) {
    const WeightSet w = run_with_shards(shards);
    ASSERT_EQ(w4.size(), w.size());
    for (std::size_t i = 0; i < w4.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(w4[i], w[i]), 0.0)
          << "shards=" << shards << " tensor " << i;
  }
}

TEST(PartialAggregationTest, NumericModeDeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(5);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  FlRunConfig cfg = base_cfg(17);
  cfg.rounds = 3;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;

  ThreadPool::set_global_threads(1);
  FedAvgRunner a(init, data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FedAvgRunner b(init, data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);
  expect_identical(a, b);
}

TEST(PartialAggregationTest, UnsupportedStrategyFailsLoudly) {
  // Per-client uplink compression rewrites each delta before accumulation,
  // so the reduction is no longer a plain weighted linear sum; configuring
  // partial_aggregation on such a session must throw at engine construction
  // — before any round runs — not silently fall back to verbatim bundles.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(3);
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 2;
  cfg.topology.partial_aggregation = true;
  cfg.compression = CompressionKind::TopK;  // per-client: can't pre-sum
  EXPECT_THROW(FedAvgRunner(init, data, fleet, cfg), Error);
}

// ---------------------------------------------------------------------------
// Per-shard fault domains: a leaf dead for the round has its partition
// redirected to an alive sibling — rounds complete, the failover is billed
// and recorded, and runs stay deterministic.

TEST(LeafFailoverTest, DeadLeafPartitionFailsOverToSibling) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 6;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.fabric_faults.leaf_death_prob = 0.35;
  cfg.fabric_faults.seed = 99;

  FedAvgRunner runner(init, data, fleet, cfg);
  runner.run();

  ASSERT_EQ(runner.history().size(), 6u);
  int participants = 0, lost = 0, failovers = 0;
  for (const auto& rec : runner.history()) {
    participants += rec.participants;
    lost += rec.lost_updates;
    failovers += rec.leaf_failovers;
    // Conservation: every planned task is accounted for.
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round);
  }
  const FabricStats& stats = runner.fabric()->stats();
  EXPECT_GT(stats.leaf_failovers.load(), 0u)
      << "a 35% leaf death rate over 6 rounds x 3 leaves must kill one";
  EXPECT_EQ(static_cast<std::uint64_t>(failovers),
            stats.leaf_failovers.load())
      << "per-round records must reconcile with the transport counter";
  // Siblings cover every death unless all three leaves die at once, so
  // nearly every update survives; the redirected bundles are billed.
  EXPECT_GT(participants, 0);
  const double model_bytes =
      static_cast<double>(runner.model().param_bytes());
  const double failover_bytes =
      static_cast<double>(stats.failover_bytes_down.load());
  EXPECT_GT(failover_bytes, 0.0);
  EXPECT_NEAR(runner.costs().network_bytes(),
              model_bytes * (2.0 * participants + lost) + failover_bytes,
              1.0);

  // Determinism: the same chaotic run replays bit-identically.
  FedAvgRunner again(init, data, fleet, cfg);
  again.run();
  expect_identical(runner, again);
}

TEST(LeafFailoverTest, DeepTreeFailoverStaysWithinFaultDomain) {
  // 3-level tree, sibling groups of 2: deaths fail over to the one
  // sibling under the same parent; rounds terminate and conserve tasks
  // across thread counts.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  FlRunConfig cfg = base_cfg(7);
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.fabric_faults.leaf_death_prob = 0.4;
  cfg.fabric_faults.seed = 1234;

  ThreadPool::set_global_threads(1);
  FedAvgRunner a(init, data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FedAvgRunner b(init, data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);

  expect_identical(a, b);
  int lost = 0;
  for (const auto& rec : a.history()) {
    EXPECT_EQ(rec.participants + rec.lost_updates, cfg.clients_per_round);
    lost += rec.lost_updates;
  }
  // A 40% death rate must trigger failovers (one sibling dead) and/or
  // whole-domain losses (both siblings dead) across 5 rounds x 4 leaves.
  EXPECT_GT(a.fabric()->stats().leaf_failovers.load() +
                static_cast<std::uint64_t>(lost),
            0u);
}

// ---------------------------------------------------------------------------
// Async over the tree: FedBuff round trips hop through the leaf partition
// on the zero-latency backbone, so fault-free tree sessions are bitwise
// identical to flat ones — delivery order at the root is preserved.

TEST(AsyncTreeTest, FaultFreeTreeAsyncMatchesFlatBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  AsyncRunConfig cfg;
  cfg.concurrency = 3;
  cfg.buffer_size = 2;
  cfg.aggregations = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 42;
  cfg.use_fabric = true;

  FedBuffRunner flat(init, data, fleet, cfg);
  flat.run();

  for (int levels : {2, 3}) {
    AsyncRunConfig tree_cfg = cfg;
    tree_cfg.topology.levels = levels;
    tree_cfg.topology.shards = 3;
    tree_cfg.topology.branching = 2;
    FedBuffRunner tree(init, data, fleet, tree_cfg);
    tree.run();

    EXPECT_EQ(flat.now_s(), tree.now_s()) << "levels=" << levels;
    auto wa = flat.model().weights();
    auto wb = tree.model().weights();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
          << "levels=" << levels << " tensor " << i;
    ASSERT_EQ(flat.history().size(), tree.history().size());
    for (std::size_t r = 0; r < flat.history().size(); ++r) {
      EXPECT_EQ(flat.history()[r].avg_loss, tree.history()[r].avg_loss);
      EXPECT_EQ(flat.history()[r].round_time_s,
                tree.history()[r].round_time_s);
    }
    // The tree moved more backbone frames for the same outcome.
    EXPECT_GT(tree.engine().fabric()->stats().frames_sent.load(),
              flat.engine().fabric()->stats().frames_sent.load());
    EXPECT_EQ(tree.engine().fabric()->stats().frames_rejected.load(), 0u);
  }
}

TEST(AsyncTreeTest, FaultyTreeAsyncTerminatesAndAccountsLosses) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(8);
  Model init(tiny_model(), rng);

  AsyncRunConfig cfg;
  cfg.concurrency = 4;
  cfg.buffer_size = 2;
  cfg.aggregations = 6;
  cfg.local.steps = 2;
  cfg.local.batch = 4;
  cfg.seed = 7;
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.2;
  cfg.fabric_faults.dropout_prob = 0.1;
  cfg.fabric_faults.leaf_death_prob = 0.15;
  cfg.fabric_faults.seed = 55;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.max_retries = 1;
  cfg.topology.ack_timeout_s = 30.0;

  FedBuffRunner runner(init, data, fleet, cfg);
  runner.run();  // must terminate: timeouts replace lost clients

  EXPECT_EQ(runner.aggregations_done(), cfg.aggregations);
  int lost = 0, failovers = 0;
  for (const auto& rec : runner.history()) {
    lost += rec.lost_updates;
    failovers += rec.leaf_failovers;
  }
  EXPECT_GT(lost, 0) << "fault injection over tree hops must lose updates";
  // Failed-over jobs are recorded per shipped version, reconciling with
  // the transport counter up to the residual after the last ship.
  EXPECT_LE(static_cast<std::uint64_t>(failovers),
            runner.engine().fabric()->stats().leaf_failovers.load());
  EXPECT_GT(runner.engine().fabric()->stats().leaf_failovers.load(), 0u)
      << "a 15% leaf death rate over the session must reroute some jobs";
  EXPECT_EQ(runner.engine().fabric()->stats().frames_rejected.load(), 0u);

  // Deterministic replay.
  FedBuffRunner again(init, data, fleet, cfg);
  again.run();
  EXPECT_EQ(runner.now_s(), again.now_s());
  ASSERT_EQ(runner.history().size(), again.history().size());
  for (std::size_t r = 0; r < runner.history().size(); ++r)
    EXPECT_EQ(runner.history()[r].avg_loss, again.history()[r].avg_loss);
}

// ---------------------------------------------------------------------------
// Wire v6 bandwidth reducers: (a) quantized tree partials stay within 1e-3
// relative of the exact numeric tree and bitwise-deterministic across
// thread counts; (b) broadcast-cache rounds are bitwise identical to cold
// rounds (Sim and Socket) with the savings visible in FabricStats; (c)
// delta downlinks reconstruct bitwise-identical weights and never cost
// extra bytes; repeat broadcasts genuinely hit both machineries.

TEST(BandwidthTest, QuantizedFedAvgTreeMatchesExactNumericWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig exact = base_cfg(21);
  exact.rounds = 4;
  exact.clients_per_round = 6;
  exact.eval_every = 0;
  exact.use_fabric = true;
  exact.topology.levels = 3;
  exact.topology.shards = 4;
  exact.topology.branching = 2;
  exact.topology.partial_aggregation = true;
  FedAvgRunner a(init, data, fleet, exact);
  a.run();

  for (PartialQuant q : {PartialQuant::Int8, PartialQuant::Fp16}) {
    FlRunConfig quant = exact;
    quant.topology.quantize_partials = q;
    FedAvgRunner b(init, data, fleet, quant);
    b.run();
    EXPECT_LT(max_rel_diff(a.model().weights(), b.model().weights()), 1e-3)
        << "quant mode " << static_cast<int>(q);
    // Metrics ride the tree verbatim either way.
    ASSERT_EQ(a.history().size(), b.history().size());
    for (std::size_t r = 0; r < a.history().size(); ++r)
      EXPECT_EQ(a.history()[r].participants, b.history()[r].participants);
    EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
    // Quantized group sums shrink what the root actually received.
    EXPECT_LT(b.fabric()->stats().bytes_root_in.load(),
              a.fabric()->stats().bytes_root_in.load());
  }
}

TEST(BandwidthTest, QuantizedHeteroFLTreeMatchesExactNumericWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients(), /*seed=*/4);

  BaselineConfig cfg;
  cfg.rounds = 4;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.seed = 19;
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 3;
  cfg.topology.partial_aggregation = true;

  HeteroFLRunner a(tiny_model(), data, fleet, cfg);
  a.run();

  cfg.topology.quantize_partials = PartialQuant::Int8;
  HeteroFLRunner b(tiny_model(), data, fleet, cfg);
  b.run();

  EXPECT_LT(max_rel_diff(a.global().weights(), b.global().weights()), 1e-3);
  EXPECT_EQ(b.engine().fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, QuantizedFedTransTreeMatchesExactNumericWithinTolerance) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());

  FedTransConfig cfg;
  cfg.rounds = 5;
  cfg.clients_per_round = 6;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 13;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;

  FedTransTrainer a(tiny_model(), data, fleet, cfg);
  a.run();

  cfg.topology.quantize_partials = PartialQuant::Fp16;
  FedTransTrainer b(tiny_model(), data, fleet, cfg);
  b.run();

  // Utility learning consumes the verbatim per-client losses; fp16 group
  // sums keep the weight drift small enough that the family trajectory is
  // preserved on this fixture.
  ASSERT_EQ(a.num_models(), b.num_models());
  for (int k = 0; k < a.num_models(); ++k)
    EXPECT_LT(max_rel_diff(a.model(k).weights(), b.model(k).weights()), 1e-3)
        << "model " << k;
}

TEST(BandwidthTest, QuantizedModeDeterministicAcrossThreadCounts) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(5);
  Model init(tiny_model(), rng);
  const int prev_threads = ThreadPool::global().size();

  FlRunConfig cfg = base_cfg(17);
  cfg.rounds = 3;
  cfg.clients_per_round = 6;
  cfg.eval_every = 0;
  cfg.use_fabric = true;
  cfg.topology.levels = 3;
  cfg.topology.shards = 4;
  cfg.topology.branching = 2;
  cfg.topology.partial_aggregation = true;
  cfg.topology.quantize_partials = PartialQuant::Int8;

  ThreadPool::set_global_threads(1);
  FedAvgRunner a(init, data, fleet, cfg);
  a.run();
  ThreadPool::set_global_threads(4);
  FedAvgRunner b(init, data, fleet, cfg);
  b.run();
  ThreadPool::set_global_threads(prev_threads);
  expect_identical(a, b);
}

TEST(BandwidthTest, QuantizedPartialsRequireNumericMode) {
  // Verbatim bundles must stay bit-exact, so quantization without
  // partial_aggregation is a configuration error caught at construction.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(3);
  cfg.use_fabric = true;
  cfg.topology.levels = 2;
  cfg.topology.shards = 2;
  cfg.topology.quantize_partials = PartialQuant::Int8;
  EXPECT_THROW(FedAvgRunner(init, data, fleet, cfg), Error);
}

TEST(BandwidthTest, BroadcastCacheRoundsMatchColdRoundsBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      FlRunConfig cold = base_cfg(seed);
      cold.use_fabric = true;
      cold.topology.levels = 3;
      cold.topology.shards = 4;
      cold.topology.branching = 2;
      FedAvgRunner a(init, data, fleet, cold);
      a.run();

      FlRunConfig cached = cold;
      cached.topology.broadcast_cache = true;
      FedAvgRunner b(init, data, fleet, cached);
      b.run();

      // Bitwise including costs: elision only trims the zero-latency
      // backbone, never the billed client links.
      expect_identical(a, b);
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
      EXPECT_LE(b.fabric()->stats().bytes_sent.load(),
                a.fabric()->stats().bytes_sent.load());
    }
  }
  ThreadPool::set_global_threads(prev_threads);

  // Socket leg: the elided frames survive stream reassembly too.
  Rng rng(3 + 11);
  Model init(tiny_model(), rng);
  FlRunConfig cold = base_cfg(11);
  cold.use_fabric = true;
  cold.topology.levels = 2;
  cold.topology.shards = 3;
  cold.with_socket_transport();
  FedAvgRunner a(init, data, fleet, cold);
  a.run();
  FlRunConfig cached = cold;
  cached.topology.broadcast_cache = true;
  FedAvgRunner b(init, data, fleet, cached);
  b.run();
  expect_identical(a, b);
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, DeltaDownlinkKeepsResultsBitwiseIdentical) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);

      FlRunConfig full = base_cfg(seed);
      full.use_fabric = true;
      full.topology.levels = 2;
      full.topology.shards = 3;
      FedAvgRunner a(init, data, fleet, full);
      a.run();

      FlRunConfig delta = full;
      delta.topology.delta_downlink = true;
      FedAvgRunner b(init, data, fleet, delta);
      b.run();

      // Clients reconstruct the exact weights, so the whole trajectory is
      // bitwise; any shipped delta can only shrink the bill.
      auto wa = a.model().weights();
      auto wb = b.model().weights();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
      ASSERT_EQ(a.history().size(), b.history().size());
      for (std::size_t r = 0; r < a.history().size(); ++r) {
        EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss);
        EXPECT_EQ(a.history()[r].participants, b.history()[r].participants);
      }
      EXPECT_LE(b.costs().network_bytes(), a.costs().network_bytes());
      EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
    }
  }
  ThreadPool::set_global_threads(prev_threads);

  // Socket leg, flat topology (delta applies to every sync downlink path).
  Rng rng(3 + 42);
  Model init(tiny_model(), rng);
  FlRunConfig full = base_cfg(42);
  full.use_fabric = true;
  full.with_socket_transport();
  FedAvgRunner a(init, data, fleet, full);
  a.run();
  FlRunConfig delta = full;
  delta.topology.delta_downlink = true;
  FedAvgRunner b(init, data, fleet, delta);
  b.run();
  auto wa = a.model().weights();
  auto wb = b.model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
  EXPECT_EQ(b.fabric()->stats().frames_rejected.load(), 0u);
}

TEST(BandwidthTest, RepeatBroadcastsHitTheCacheAndShipDeltas) {
  // Drive the server directly with a frozen global: round 2+ re-ships the
  // same bodies, so every tree edge elides against its cache and every
  // client's ModelDown collapses to an all-Same delta — while a
  // feature-off server produces bitwise identical training results.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model proto(tiny_model(), rng);

  LocalTrainConfig local;
  local.steps = 3;
  local.batch = 6;

  FabricTopology on_topo;
  on_topo.levels = 3;
  on_topo.shards = 4;
  on_topo.branching = 2;
  on_topo.broadcast_cache = true;
  on_topo.delta_downlink = true;
  FederationServer on(proto, data, fleet, local, FaultConfig{}, on_topo);

  FabricTopology off_topo = on_topo;
  off_topo.broadcast_cache = false;
  off_topo.delta_downlink = false;
  FederationServer off(proto, data, fleet, local, FaultConfig{}, off_topo);

  const WeightSet global = proto.weights();
  const std::vector<int> clients = {0, 1, 2, 3, 4, 5};
  for (std::uint32_t round = 1; round <= 3; ++round) {
    Rng fork_root(100 + round);
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < clients.size(); ++i)
      rngs.push_back(fork_root.fork());

    const ExchangeResult ea = on.run_round(round, global, clients, rngs);
    const ExchangeResult eb = off.run_round(round, global, clients, rngs);
    ASSERT_EQ(ea.outcomes.size(), eb.outcomes.size());
    for (std::size_t i = 0; i < clients.size(); ++i) {
      EXPECT_EQ(ea.outcomes[i], eb.outcomes[i]) << "round " << round;
      ASSERT_EQ(ea.results[i].delta.size(), eb.results[i].delta.size());
      for (std::size_t t = 0; t < ea.results[i].delta.size(); ++t)
        EXPECT_EQ(testing::max_abs_diff(ea.results[i].delta[t],
                                        eb.results[i].delta[t]),
                  0.0)
            << "round " << round << " slot " << i << " tensor " << t;
    }
    if (round == 1) {
      EXPECT_EQ(on.stats().cache_hits.load(), 0u) << "cold round";
      EXPECT_EQ(on.stats().delta_downlinks.load(), 0u) << "no base yet";
    }
  }

  // Warm rounds elided on every edge and shipped per-client deltas.
  EXPECT_GT(on.stats().cache_hits.load(), 0u);
  EXPECT_GT(on.stats().cache_saved_bytes.load(), 0u);
  EXPECT_GT(on.stats().delta_downlinks.load(), 0u);
  EXPECT_GT(on.stats().delta_saved_bytes.load(), 0u);
  EXPECT_EQ(off.stats().cache_hits.load(), 0u);
  EXPECT_EQ(off.stats().delta_downlinks.load(), 0u);
  EXPECT_EQ(on.stats().frames_rejected.load(), 0u);
  EXPECT_EQ(off.stats().frames_rejected.load(), 0u);

  // The byte ledger reconciles: the feature-on fabric moved exactly the
  // advertised savings less than the feature-off one.
  EXPECT_EQ(on.stats().bytes_sent.load() + on.stats().cache_saved_bytes.load() +
                on.stats().delta_saved_bytes.load(),
            off.stats().bytes_sent.load());
  EXPECT_LT(on.stats().bytes_downlink.load(),
            off.stats().bytes_downlink.load());
}

}  // namespace
}  // namespace fedtrans
