// Fig. 7 — Cost-to-accuracy curves: mean client accuracy as a function of
// cumulative training MACs for each method (femnist-like workload; the
// paper plots all four datasets). Shape to reproduce: the FedTrans curve
// reaches any given accuracy at the lowest MAC budget because it starts
// small and grows judiciously.

#include <iostream>

#include "common/table.hpp"
#include "harness/experiments.hpp"

using namespace fedtrans;

namespace {
void print_series(const MethodResult& r) {
  std::cout << r.method << " series (cum MACs, accuracy%):\n  ";
  int printed = 0;
  for (const auto& rec : r.report.history) {
    if (rec.accuracy < 0) continue;
    std::cout << "(" << fmt_sci(rec.cum_macs, 1) << ", "
              << fmt_fixed(rec.accuracy * 100, 1) << ") ";
    if (++printed % 5 == 0) std::cout << "\n  ";
  }
  std::cout << "\n";
}
}  // namespace

int main() {
  const Scale scale = bench_scale();
  std::cout << "[fig7] cost-to-accuracy curves (" << scale_name(scale)
            << ", femnist-like)\n\n";
  auto preset = femnist_like(scale);
  const int probe = 5;  // evaluate every 5 rounds

  auto fedtrans = run_fedtrans(preset, probe);
  auto fluid = run_baseline(
      Baseline::FLuID, preset, fedtrans.largest_spec, probe);
  auto heterofl = run_baseline(
      Baseline::HeteroFL, preset, fedtrans.largest_spec, probe);
  auto splitmix = run_baseline(
      Baseline::SplitMix, preset, fedtrans.largest_spec, probe);

  for (const auto* r : {&fedtrans, &fluid, &heterofl, &splitmix})
    print_series(*r);

  // Headline scalar: cost to reach a common accuracy threshold.
  auto cost_to_reach = [](const MethodResult& r, double target) {
    for (const auto& rec : r.report.history)
      if (rec.accuracy >= target) return rec.cum_macs;
    return -1.0;
  };
  double best_final = 0.0;
  for (const auto* r : {&fedtrans, &fluid, &heterofl, &splitmix})
    for (const auto& rec : r->report.history)
      best_final = std::max(best_final, rec.accuracy);
  const double target = best_final * 0.8;
  std::cout << "\ncost to reach " << fmt_fixed(target * 100, 1)
            << "% accuracy:\n";
  TablePrinter t({"method", "MACs (-1 = never)"});
  for (const auto* r : {&fedtrans, &fluid, &heterofl, &splitmix})
    t.add_row({r->method, fmt_sci(cost_to_reach(*r, target), 2)});
  t.print(std::cout);
  std::cout << "\nshape check: FedTrans reaches the target with the fewest "
               "MACs (paper Fig. 7).\n";
  return 0;
}
