// Checkpoint/resume tests: a restored FedTrans engine must continue
// bit-identically to an uninterrupted run — weights, utilities, costs,
// round history, RNG trajectory and the transformation schedule.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 10) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 20;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 31;
  return cfg;
}

std::vector<DeviceProfile> fleet_with_capacity(int n, double macs) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.sigma_compute = 0.8;
  cfg.seed = 4;
  cfg.with_median_capacity(macs);
  return sample_fleet(cfg);
}

FedTransConfig fast_cfg() {
  FedTransConfig cfg;
  cfg.rounds = 12;
  cfg.clients_per_round = 4;
  cfg.local.steps = 4;
  cfg.local.batch = 6;
  cfg.gamma = 2;
  cfg.doc_delta = 2;
  cfg.beta = 10.0;  // forces transformation as soon as DoC is ready
  cfg.act_window = 2;
  cfg.max_models = 3;
  cfg.seed = 77;
  return cfg;
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

void expect_same_state(FederationEngine& ea, FederationEngine& eb) {
  auto& a = ea.strategy_as<FedTransStrategy>();
  auto& b = eb.strategy_as<FedTransStrategy>();
  ASSERT_EQ(a.num_models(), b.num_models());
  EXPECT_EQ(ea.rounds_done(), eb.rounds_done());
  EXPECT_EQ(a.transforms_done(), b.transforms_done());
  for (int k = 0; k < a.num_models(); ++k) {
    EXPECT_EQ(a.model(k).spec(), b.model(k).spec()) << "model " << k;
    auto wa = a.model(k).weights();
    auto wb = b.model(k).weights();
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i)
      EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0)
          << "model " << k << " tensor " << i;
  }
  // Utilities drive assignment; they must match exactly too.
  const auto& cma = a.client_manager();
  const auto& cmb = b.client_manager();
  for (int c = 0; c < cma.num_clients(); ++c)
    for (int k = 0; k < a.num_models(); ++k)
      EXPECT_EQ(cma.utility(c, k), cmb.utility(c, k))
          << "client " << c << " model " << k;
  EXPECT_EQ(ea.costs().total_macs(), eb.costs().total_macs());
  EXPECT_EQ(ea.costs().network_bytes(), eb.costs().network_bytes());
  EXPECT_EQ(ea.costs().storage_bytes(), eb.costs().storage_bytes());
  ASSERT_EQ(ea.history().size(), eb.history().size());
  for (std::size_t i = 0; i < ea.history().size(); ++i) {
    EXPECT_EQ(ea.history()[i].avg_loss, eb.history()[i].avg_loss) << i;
    EXPECT_EQ(ea.history()[i].cum_macs, eb.history()[i].cum_macs) << i;
  }
}

TEST(CheckpointTest, RoundTripRestoresIdenticalState) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  for (int r = 0; r < 6; ++r) a.run_round();

  std::stringstream ss;
  save_checkpoint(a, ss);

  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  load_checkpoint(b, ss);
  expect_same_state(a, b);
}

TEST(CheckpointTest, ResumedRunReplaysBitIdentically) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);

  // Uninterrupted reference: 6 + 6 rounds.
  FederationEngine ref(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  for (int r = 0; r < 6; ++r) ref.run_round();
  std::stringstream ss;
  save_checkpoint(ref, ss);
  for (int r = 0; r < 6; ++r) ref.run_round();

  // Interrupted run: restore at round 6, then the same 6 more rounds.
  FederationEngine resumed(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  load_checkpoint(resumed, ss);
  EXPECT_EQ(resumed.rounds_done(), 6);
  for (int r = 0; r < 6; ++r) resumed.run_round();

  expect_same_state(ref, resumed);
}

TEST(CheckpointTest, ResumeContinuesTransformationSchedule) {
  // Checkpoint *before* the first transformation; the resumed run must
  // still spawn models on the same schedule as the reference.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  auto cfg = fast_cfg();

  FederationEngine ref(
      std::make_unique<FedTransStrategy>(tiny_model(), cfg), data, fleet, cfg);
  auto& fedtrans = ref.strategy_as<FedTransStrategy>();
  ref.run_round();
  ref.run_round();
  ASSERT_EQ(fedtrans.num_models(), 1)
      << "transform fired earlier than expected";
  std::stringstream ss;
  save_checkpoint(ref, ss);
  for (int r = 2; r < cfg.rounds; ++r) ref.run_round();
  ASSERT_GE(fedtrans.num_models(), 2);

  FederationEngine resumed(
      std::make_unique<FedTransStrategy>(tiny_model(), cfg), data, fleet, cfg);
  load_checkpoint(resumed, ss);
  for (int r = 2; r < cfg.rounds; ++r) resumed.run_round();
  expect_same_state(ref, resumed);
}

TEST(CheckpointTest, FileRoundTrip) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  for (int r = 0; r < 4; ++r) a.run_round();
  const std::string path = ::testing::TempDir() + "/fedtrans_ckpt.bin";
  {
    std::ofstream os(path, std::ios::binary);
    save_checkpoint(a, os);
  }

  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  std::ifstream is(path, std::ios::binary);
  load_checkpoint(b, is);
  expect_same_state(a, b);
}

TEST(CheckpointTest, RejectsEnginesNotRunningFedTrans) {
  // Only FedTrans has a checkpoint format: saving or loading any other
  // strategy's engine fails loudly instead of writing or reading garbage.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  Rng rng(3);
  FederationEngine fedavg(
      std::make_unique<FedAvgStrategy>(Model(tiny_model(), rng),
                                       FedAvgOptions{}),
      data, fleet, fast_cfg());
  std::stringstream ss;
  EXPECT_THROW(save_checkpoint(fedavg, ss), Error);
  EXPECT_TRUE(ss.str().empty()) << "nothing may be written on refusal";

  FederationEngine fedtrans(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  save_checkpoint(fedtrans, ss);
  EXPECT_THROW(load_checkpoint(fedavg, ss), Error);
}

TEST(CheckpointTest, RejectsGarbageMagic) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine t(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  std::stringstream ss;
  ss << "not a checkpoint at all";
  EXPECT_THROW(load_checkpoint(t, ss), Error);
}

TEST(CheckpointTest, RejectsTruncatedStream) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  for (int r = 0; r < 3; ++r) a.run_round();
  std::stringstream ss;
  save_checkpoint(a, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  EXPECT_THROW(load_checkpoint(b, cut), Error);
}

TEST(CheckpointTest, ForgedHistoryCountFailsBeforeAllocating) {
  // The round-history count is an untrusted u64. A count of 2^40 records
  // must fail at its guard with a typed Error, not reach reserve() and
  // throw std::length_error / std::bad_alloc (or try to allocate ~70 TB).
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  for (int r = 0; r < 2; ++r) a.run_round();
  std::stringstream ss;
  save_checkpoint(a, ss);
  std::string bytes = ss.str();

  // The history is the checkpoint's tail: the u64 count, then each record
  // (68 bytes of fixed fields and list count, 4 per Byzantine client id).
  std::size_t records = 0;
  for (const RoundRecord& rec : a.history())
    records += 68 + 4 * rec.byzantine_clients.size();
  const std::size_t at = bytes.size() - records - sizeof(std::uint64_t);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + at, sizeof count);
  ASSERT_EQ(count, a.history().size()) << "history count not where expected";
  const std::uint64_t forged = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + at, &forged, sizeof forged);

  std::stringstream in(bytes);
  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  try {
    load_checkpoint(b, in);
    ADD_FAILURE() << "forged history count was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("history count"), std::string::npos)
        << "failed somewhere other than the count guard: " << e.what();
  }
}

TEST(CheckpointTest, RejectsMismatchedSeed) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  a.run_round();
  std::stringstream ss;
  save_checkpoint(a, ss);

  auto other = fast_cfg();
  other.seed = 1234;
  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), other), data, fleet,
      other);
  EXPECT_THROW(load_checkpoint(b, ss), Error);
}

TEST(CheckpointTest, RejectsMismatchedFleet) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  a.run_round();
  std::stringstream ss;
  save_checkpoint(a, ss);

  auto small = FederatedDataset::generate(tiny_data(6));
  auto small_fleet = fleet_with_capacity(6, 5e6);
  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), small,
      small_fleet, fast_cfg());
  EXPECT_THROW(load_checkpoint(b, ss), Error);
}

TEST(CheckpointTest, MidTrainingEvaluationUnaffectedBySaving) {
  // Saving is a read-only operation: run → save → run must equal run → run.
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 5e6);
  FederationEngine a(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  FederationEngine b(
      std::make_unique<FedTransStrategy>(tiny_model(), fast_cfg()), data, fleet,
      fast_cfg());
  for (int r = 0; r < 3; ++r) {
    a.run_round();
    std::stringstream ss;
    save_checkpoint(a, ss);  // interleaved saves
    b.run_round();
  }
  expect_same_state(a, b);
}

// ---------------------------------------------------------- scaling policy

TEST(ScalingPolicyTest, WidenOnlyNeverDeepens) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.scaling_policy = ScalingPolicy::WidenOnly;
  cfg.max_models = 4;
  FederationEngine t(
      std::make_unique<FedTransStrategy>(tiny_model(), cfg), data, fleet, cfg);
  auto& fedtrans = t.strategy_as<FedTransStrategy>();
  t.run();
  ASSERT_GE(fedtrans.num_models(), 2);
  const auto n_cells0 = fedtrans.model(0).spec().cells.size();
  for (int k = 1; k < fedtrans.num_models(); ++k)
    EXPECT_EQ(fedtrans.model(k).spec().cells.size(), n_cells0)
        << "widen-only must not insert cells";
}

TEST(ScalingPolicyTest, DeepenOnlyNeverWidens) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.scaling_policy = ScalingPolicy::DeepenOnly;
  cfg.max_models = 4;
  FederationEngine t(
      std::make_unique<FedTransStrategy>(tiny_model(), cfg), data, fleet, cfg);
  auto& fedtrans = t.strategy_as<FedTransStrategy>();
  t.run();
  ASSERT_GE(fedtrans.num_models(), 2);
  // Widths of surviving (lineage-matched) cells never change; depth grows.
  for (int k = 1; k < fedtrans.num_models(); ++k) {
    EXPECT_GT(fedtrans.model(k).spec().cells.size(),
              fedtrans.model(k - 1).spec().cells.size());
    for (const auto& cell : fedtrans.model(k).spec().cells)
      EXPECT_TRUE(cell.width == 6 || cell.width == 8)
          << "deepen-only must keep the original widths";
  }
}

TEST(ScalingPolicyTest, CompoundAlternatesOperations) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = fleet_with_capacity(data.num_clients(), 1e9);
  auto cfg = fast_cfg();
  cfg.scaling_policy = ScalingPolicy::Compound;
  cfg.max_models = 4;
  FederationEngine t(
      std::make_unique<FedTransStrategy>(tiny_model(), cfg), data, fleet, cfg);
  auto& fedtrans = t.strategy_as<FedTransStrategy>();
  t.run();
  ASSERT_GE(fedtrans.num_models(), 3);
  // Generation 1 widens (fresh cells start un-widened); a later generation
  // must have inserted at least one cell (the deepen half of the cycle).
  bool saw_width_growth = false, saw_depth_growth = false;
  for (int k = 1; k < fedtrans.num_models(); ++k) {
    if (fedtrans.model(k).spec().cells.size() >
        fedtrans.model(k - 1).spec().cells.size())
      saw_depth_growth = true;
    for (const auto& cell : fedtrans.model(k).spec().cells)
      if (cell.width > 8) saw_width_growth = true;
  }
  EXPECT_TRUE(saw_width_growth);
  EXPECT_TRUE(saw_depth_growth);
}

TEST(ScalingPolicyTest, NamesAreStable) {
  EXPECT_STREQ(scaling_policy_name(ScalingPolicy::Compound), "compound");
  EXPECT_STREQ(scaling_policy_name(ScalingPolicy::WidenOnly), "widen-only");
  EXPECT_STREQ(scaling_policy_name(ScalingPolicy::DeepenOnly), "deepen-only");
}

}  // namespace
}  // namespace fedtrans
