// Fig. 2 — Motivation: existing solutions are suboptimal. Compares a single
// global model (FedAvg), the multi-model baselines (HeteroFL, SplitMix,
// FLuID) and the centralized "cloud ML" upper bound on cost vs accuracy.
// Shape to reproduce: multi-model baselines cost much more than the global
// model yet all sit well below the centralized upper bound.

#include <iostream>

#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

int main() {
  const Scale scale = bench_scale();
  std::cout << "[fig2] motivation: cost vs accuracy of existing solutions ("
            << scale_name(scale) << ")\n\n";

  auto preset = femnist_like(scale);
  // A mid-sized model as "the" architecture existing single-model FL ships.
  ModelSpec large = preset.initial_model;
  large.stem_width *= 2;
  for (auto& c : large.cells) c.width *= 2;

  auto global = run_single_model(preset, preset.initial_model);
  auto heterofl = run_baseline(Baseline::HeteroFL, preset, large);
  auto splitmix = run_baseline(Baseline::SplitMix, preset, large);
  auto fluid = run_baseline(Baseline::FLuID, preset, large);
  auto cloud = run_centralized(preset, large);
  cloud.method = "Centralized (upper bound)";
  global.method = "Global model (FedAvg)";

  TablePrinter t({"solution", "accuracy (%)", "cost (MACs)", "cost vs global"});
  const double base = global.report.costs.total_macs();
  for (const auto* r : {&global, &heterofl, &splitmix, &fluid, &cloud}) {
    const double c = r->report.costs.total_macs();
    t.add_row({r->method, fmt_fixed(r->report.mean_accuracy * 100, 2),
               fmt_sci(c, 2), fmt_fixed(c / base, 1) + "x"});
  }
  t.print(std::cout);
  std::cout << "\nshape check: multi-model baselines pay >1x the global "
               "model's cost; everyone trails the centralized bound (paper "
               "Fig. 2).\n";
  return 0;
}
