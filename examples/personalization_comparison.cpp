// Side-by-side comparison on one non-IID workload: FedTrans vs a single
// global model (FedAvg) vs HeteroFL. Prints per-method mean accuracy, the
// per-client accuracy spread, and training costs — a miniature of the
// paper's Table 2 protocol (baselines receive FedTrans's largest model).

#include <iostream>

#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  ExperimentPreset preset = cifar_like(Scale::Tiny);
  std::cout << "workload: " << preset.name << ", "
            << preset.dataset.num_clients << " clients, Dirichlet h="
            << preset.dataset.dirichlet_h << "\n\n";

  MethodResult fedtrans = run_fedtrans(preset);
  MethodResult fedavg = run_single_model(preset, preset.initial_model);
  MethodResult heterofl = run_baseline(
      Baseline::HeteroFL, preset, fedtrans.largest_spec);

  TablePrinter t({"method", "mean accu (%)", "IQR (%)", "cost", "network"});
  for (const auto* r : {&fedtrans, &fedavg, &heterofl}) {
    t.add_row({r->method, fmt_fixed(r->report.mean_accuracy * 100, 2),
               fmt_fixed(r->report.accuracy_iqr * 100, 2),
               fmt_macs(r->report.costs.total_macs()),
               fmt_bytes(r->report.costs.network_bytes())});
  }
  t.print(std::cout);

  // Per-client wins: how many clients does FedTrans serve better?
  int wins = 0, ties = 0;
  for (std::size_t c = 0; c < fedtrans.report.client_accuracy.size(); ++c) {
    const double a = fedtrans.report.client_accuracy[c];
    const double b = fedavg.report.client_accuracy[c];
    if (a > b) ++wins;
    if (a == b) ++ties;
  }
  std::cout << "\nFedTrans beats the single global model on " << wins << "/"
            << fedtrans.report.client_accuracy.size() << " clients ("
            << ties << " ties), with " << fedtrans.num_models
            << " models grown from one seed architecture.\n";
  return 0;
}
