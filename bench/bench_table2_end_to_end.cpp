// Table 2 — End-to-end comparison on all four workloads:
// FedTrans vs FLuID vs HeteroFL vs SplitMix, reporting mean client accuracy,
// IQR, training cost (MACs), server storage, and network volume. Baselines
// receive FedTrans's largest transformed model (paper §A.1 protocol).
//
// Shape to reproduce: FedTrans wins accuracy on every dataset while paying
// the least MACs/storage/network; HeteroFL's weak-client submodels drag its
// accuracy; SplitMix ships the most bytes.

#include <iostream>

#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[table2] end-to-end comparison (" << scale_name(scale)
            << ")\n\n";

  TablePrinter t({"dataset", "method", "accu (%)", "IQR (%)", "cost (MACs)",
                  "storage", "network"});
  for (const auto& preset : all_presets(scale)) {
    std::cerr << "running " << preset.name << "...\n";
    auto fedtrans = run_fedtrans(preset);
    auto fluid = run_baseline(Baseline::FLuID, preset, fedtrans.largest_spec);
    auto heterofl = run_baseline(
        Baseline::HeteroFL, preset, fedtrans.largest_spec);
    auto splitmix = run_baseline(
        Baseline::SplitMix, preset, fedtrans.largest_spec);
    for (const auto* r : {&fedtrans, &fluid, &heterofl, &splitmix}) {
      t.add_row({preset.name, r->method,
                 fmt_fixed(r->report.mean_accuracy * 100, 2),
                 fmt_fixed(r->report.accuracy_iqr * 100, 2),
                 fmt_sci(r->report.costs.total_macs(), 2),
                 fmt_bytes(r->report.costs.storage_bytes()),
                 fmt_bytes(r->report.costs.network_bytes())});
    }
  }
  t.print(std::cout);
  std::cout << "\nshape check: FedTrans should lead accuracy at the lowest "
               "cost/storage on each dataset (paper Table 2).\n";
  return 0;
}
