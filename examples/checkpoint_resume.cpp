// Checkpoint & resume: survive a coordinator crash without perturbing the
// training trajectory.
//
// FL runs span days on preemptible infrastructure, so the coordinator must
// be restartable. save_checkpoint writes *all* dynamic state of a FedTrans
// engine — the model family (specs, weights, per-model server-optimizer
// state), client utilities, DoC/activeness histories, cost meters and the
// RNG — so a restored run continues bit-identically. This example trains
// half a run, "crashes", restores from the checkpoint file, finishes, and
// verifies the resumed run matches an uninterrupted reference exactly.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/table.hpp"
#include "core/trainer.hpp"
#include "harness/presets.hpp"

using namespace fedtrans;

int main() {
  ExperimentPreset preset = femnist_like(Scale::Tiny);
  FederatedDataset data = FederatedDataset::generate(preset.dataset);
  std::vector<DeviceProfile> fleet = sample_fleet(preset.fleet);
  const int half = preset.fedtrans.rounds / 2;
  const char* ckpt_path = "fedtrans_demo.ckpt";

  // Every session is a FederationEngine driving a FedTransStrategy; the
  // strategy takes the whole FedTransConfig, the engine its session part.
  auto fedtrans_session = [&] {
    return std::make_unique<FederationEngine>(
        std::make_unique<FedTransStrategy>(preset.initial_model,
                                           preset.fedtrans),
        data, fleet, preset.fedtrans);
  };

  // --- Reference: one uninterrupted run. -------------------------------
  auto reference = fedtrans_session();
  reference->run();

  // --- Interrupted run: train half, checkpoint, "crash". ----------------
  {
    auto crashing = fedtrans_session();
    for (int r = 0; r < half; ++r) crashing->run_round();
    std::ofstream os(ckpt_path, std::ios::binary);
    save_checkpoint(*crashing, os);
    std::cout << "checkpointed at round " << crashing->rounds_done()
              << " with "
              << crashing->strategy_as<FedTransStrategy>().num_models()
              << " model(s)\n";
    // The engine goes out of scope — the coordinator process is gone.
  }

  // --- Recovery: a fresh process restores and finishes the run. ---------
  auto resumed = fedtrans_session();
  {
    std::ifstream is(ckpt_path, std::ios::binary);
    load_checkpoint(*resumed, is);
  }
  std::cout << "restored at round " << resumed->rounds_done() << "\n";
  while (resumed->rounds_done() < preset.fedtrans.rounds) resumed->run_round();

  // --- Verify bit-exact equivalence with the reference. -----------------
  auto& want = reference->strategy_as<FedTransStrategy>();
  auto& got = resumed->strategy_as<FedTransStrategy>();
  bool identical = want.num_models() == got.num_models();
  if (identical) {
    for (int k = 0; k < want.num_models() && identical; ++k) {
      auto wa = want.model(k).weights();
      auto wb = got.model(k).weights();
      for (std::size_t i = 0; i < wa.size() && identical; ++i)
        for (std::int64_t j = 0; j < wa[i].numel() && identical; ++j)
          identical = wa[i][j] == wb[i][j];
    }
  }
  std::cout << "resumed run "
            << (identical ? "matches the uninterrupted reference bit-exactly"
                          : "DIVERGED from the reference (bug!)")
            << "\n";

  const FinalEval ev = got.evaluate_final();
  std::cout << "final mean client accuracy: "
            << fmt_fixed(ev.mean_accuracy * 100, 2) << "%\n";
  std::remove(ckpt_path);
  return identical ? 0 : 1;
}
