#include "harness/experiments.hpp"

#include "baselines/fedrolex.hpp"
#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
#include "common/stats.hpp"
#include "fl/runner.hpp"
#include "nn/loss.hpp"

namespace fedtrans {

namespace {

/// Every client's deployment accuracy plus the engine's bills.
BaselineReport engine_report(FederationEngine& engine) {
  BaselineReport rep;
  rep.client_accuracy = engine.client_accuracy();
  rep.mean_accuracy = mean(rep.client_accuracy);
  rep.accuracy_iqr = iqr(rep.client_accuracy);
  rep.costs = engine.costs();
  rep.history = engine.history();
  return rep;
}

}  // namespace

MethodResult run_fedtrans(const ExperimentPreset& p, int eval_every) {
  return run_fedtrans_cfg(p, p.fedtrans, eval_every);
}

MethodResult run_fedtrans_cfg(const ExperimentPreset& p,
                              const FedTransConfig& cfg_in, int eval_every) {
  FedTransConfig cfg = cfg_in;
  cfg.eval_every = eval_every;
  auto data = FederatedDataset::generate(p.dataset);
  auto fleet = sample_fleet(p.fleet);
  FederationEngine engine(
      std::make_unique<FedTransStrategy>(p.initial_model, cfg), data, fleet,
      static_cast<const SessionConfig&>(cfg));
  engine.run();
  auto& fedtrans = engine.strategy_as<FedTransStrategy>();
  auto ev = fedtrans.evaluate_final();

  MethodResult res;
  res.method = "FedTrans";
  res.report.client_accuracy = ev.client_accuracy;
  res.report.mean_accuracy = ev.mean_accuracy;
  res.report.accuracy_iqr = ev.accuracy_iqr;
  res.report.costs = engine.costs();
  res.report.history = engine.history();
  res.num_models = fedtrans.num_models();
  Model& largest = fedtrans.model(fedtrans.num_models() - 1);
  res.largest_spec = largest.spec();
  res.largest_macs = static_cast<double>(largest.macs());
  return res;
}

MethodResult run_baseline(Baseline kind, const ExperimentPreset& p,
                          const ModelSpec& largest, int eval_every) {
  auto data = FederatedDataset::generate(p.dataset);
  SessionConfig cfg = p.fedtrans;
  cfg.eval_every = eval_every;
  std::unique_ptr<Strategy> strategy;
  MethodResult res;
  switch (kind) {
    case Baseline::HeteroFL:
      res.method = "HeteroFL";
      strategy = std::make_unique<HeteroFLStrategy>(largest);
      break;
    case Baseline::SplitMix:
      res.method = "SplitMix";
      strategy = std::make_unique<SplitMixStrategy>(largest);
      break;
    case Baseline::FLuID:
      res.method = "FLuID";
      strategy = std::make_unique<FluidStrategy>(largest);
      break;
    case Baseline::FedRolex:
      res.method = "FedRolex";
      strategy = std::make_unique<FedRolexStrategy>(largest);
      break;
  }
  FederationEngine engine(std::move(strategy), data, sample_fleet(p.fleet),
                          cfg);
  engine.run();
  res.report = engine_report(engine);
  res.largest_spec = largest;
  // SplitMix's bases are not one model: it reports the base count instead
  // of a largest-model size.
  if (kind == Baseline::SplitMix) {
    res.num_models = engine.strategy_as<SplitMixStrategy>().num_bases();
  } else {
    res.largest_macs =
        static_cast<double>(engine.strategy().reference_model().macs());
  }
  if (kind == Baseline::FedRolex)
    res.num_models = engine.strategy_as<FedRolexStrategy>().num_levels();
  return res;
}

MethodResult run_single_model(const ExperimentPreset& p, const ModelSpec& spec,
                              ServerOptKind opt, double prox_mu,
                              int eval_every) {
  auto data = FederatedDataset::generate(p.dataset);
  auto fleet = sample_fleet(p.fleet);
  SessionConfig cfg = p.fedtrans;
  cfg.local.sgd.prox_mu = prox_mu;
  cfg.eval_every = eval_every;
  FedAvgOptions opts;
  opts.server_opt = opt;
  Rng rng(p.fedtrans.seed + 41);
  FederationEngine engine(
      std::make_unique<FedAvgStrategy>(Model(spec, rng), opts), data, fleet,
      cfg);
  engine.run();

  MethodResult res;
  res.method = opt == ServerOptKind::FedYogi
                   ? "FedYogi"
                   : (prox_mu > 0.0 ? "FedProx" : "FedAvg");
  res.report = engine_report(engine);
  res.largest_spec = spec;
  res.largest_macs = static_cast<double>(
      engine.strategy_as<FedAvgStrategy>().model().macs());
  return res;
}

MethodResult run_centralized(const ExperimentPreset& p,
                             const ModelSpec& spec) {
  auto data = FederatedDataset::generate(p.dataset);
  auto pooled = data.pooled();
  Rng rng(p.fedtrans.seed + 73);
  Model model(spec, rng);

  // Same optimizer budget as one FL run: rounds × clients × local steps.
  const int total_steps =
      p.fedtrans.rounds * p.fedtrans.clients_per_round * p.fedtrans.local.steps;
  SoftmaxCrossEntropy loss;
  Sgd sgd(model.params(), p.fedtrans.local.sgd);
  Tensor x;
  std::vector<int> y;
  MethodResult res;
  res.method = "Centralized";
  for (int s = 0; s < total_steps; ++s) {
    sample_batch(pooled, p.fedtrans.local.batch, rng, x, y);
    Tensor logits = model.forward(x, true);
    loss.forward(logits, y);
    model.backward(loss.backward());
    sgd.step();
    res.report.costs.add_training_macs(3.0 *
                                       static_cast<double>(model.macs()) *
                                       p.fedtrans.local.batch);
  }
  for (int c = 0; c < data.num_clients(); ++c)
    res.report.client_accuracy.push_back(
        evaluate_accuracy(model, data.client(c)));
  res.report.mean_accuracy = mean(res.report.client_accuracy);
  res.report.accuracy_iqr = iqr(res.report.client_accuracy);
  res.largest_spec = spec;
  res.largest_macs = static_cast<double>(model.macs());
  return res;
}

}  // namespace fedtrans
