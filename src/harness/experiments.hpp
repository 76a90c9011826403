#pragma once

#include "fl/metrics.hpp"
#include "fl/server_opt.hpp"
#include "harness/presets.hpp"

namespace fedtrans {

/// Per-method accuracy and cost summary consumed by the benchmark harness.
struct BaselineReport {
  std::vector<double> client_accuracy;
  double mean_accuracy = 0.0;
  double accuracy_iqr = 0.0;
  CostMeter costs;
  std::vector<RoundRecord> history;
};

/// Uniform per-method result consumed by the table/figure benches.
struct MethodResult {
  std::string method;
  BaselineReport report;
  int num_models = 1;
  /// Largest model in the family (== the single model for baselines).
  ModelSpec largest_spec;
  double largest_macs = 0.0;
};

/// Run FedTrans on a preset. `eval_every` > 0 records accuracy probes in the
/// history (for Fig. 7 curves). The returned largest_spec is what the
/// paper's protocol feeds to HeteroFL/SplitMix/FLuID.
MethodResult run_fedtrans(const ExperimentPreset& p, int eval_every = 0);
/// Same but with an explicit (ablated / swept) FedTransConfig.
MethodResult run_fedtrans_cfg(const ExperimentPreset& p,
                              const FedTransConfig& cfg, int eval_every = 0);

/// The multi-model baselines FedTrans is compared against (FedRolex is an
/// extension baseline: rolling sub-model extraction).
enum class Baseline { HeteroFL, SplitMix, FLuID, FedRolex };

/// Run a multi-model baseline on a preset. Per the paper's protocol (§A.1),
/// every baseline receives the *largest* model FedTrans produced as its
/// input architecture and FedTrans's session (rounds, clients, local
/// training, seed).
MethodResult run_baseline(Baseline kind, const ExperimentPreset& p,
                          const ModelSpec& largest, int eval_every = 0);

/// Single-global-model FL (FedAvg / FedProx via prox_mu / FedYogi).
MethodResult run_single_model(const ExperimentPreset& p, const ModelSpec& spec,
                              ServerOptKind opt = ServerOptKind::FedAvg,
                              double prox_mu = 0.0, int eval_every = 0);

/// Centralized ("cloud ML") upper bound: pool all client data, train `spec`
/// with plain SGD for the same optimizer budget.
MethodResult run_centralized(const ExperimentPreset& p, const ModelSpec& spec);

}  // namespace fedtrans
