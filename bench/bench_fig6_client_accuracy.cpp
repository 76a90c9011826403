// Fig. 6 — Per-client accuracy distributions (box plots) per method. The
// paper draws box plots on all four datasets; this bench prints the
// five-number summaries on two representative workloads (cifar-like,
// femnist-like) to bound runtime — set FEDTRANS_BENCH_SCALE=full for more.
// Shape to reproduce: FedTrans's box sits highest with the tightest spread.

#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

namespace {
void add_box(TablePrinter& t, const std::string& dataset,
             const MethodResult& r) {
  const auto b = box_stats(r.report.client_accuracy);
  t.add_row({dataset, r.method, fmt_fixed(b.min, 2), fmt_fixed(b.q1, 2),
             fmt_fixed(b.median, 2), fmt_fixed(b.q3, 2), fmt_fixed(b.max, 2)});
}
}  // namespace

int main() {
  const Scale scale = bench_scale();
  std::cout << "[fig6] per-client accuracy distributions ("
            << scale_name(scale) << ")\n\n";

  std::vector<ExperimentPreset> presets{cifar_like(scale),
                                        femnist_like(scale)};
  if (scale == Scale::Full) presets = all_presets(scale);

  TablePrinter t({"dataset", "method", "min", "q1", "median", "q3", "max"});
  for (const auto& preset : presets) {
    std::cerr << "running " << preset.name << "...\n";
    auto fedtrans = run_fedtrans(preset);
    auto fluid = run_baseline(Baseline::FLuID, preset, fedtrans.largest_spec);
    auto heterofl = run_baseline(
        Baseline::HeteroFL, preset, fedtrans.largest_spec);
    auto splitmix = run_baseline(
        Baseline::SplitMix, preset, fedtrans.largest_spec);
    for (const auto* r : {&fedtrans, &fluid, &heterofl, &splitmix})
      add_box(t, preset.name, *r);
  }
  t.print(std::cout);
  std::cout << "\nshape check: FedTrans's median/q1 dominate the baselines "
               "(paper Fig. 6 box plots).\n";
  return 0;
}
