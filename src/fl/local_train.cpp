#include "fl/local_train.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/loss.hpp"

namespace fedtrans {

double local_train_macs(const Model& model, const LocalTrainConfig& cfg) {
  return 3.0 * static_cast<double>(model.macs()) * cfg.steps * cfg.batch;
}

LocalTrainResult local_train(Model& model, const ClientData& data,
                             const LocalTrainConfig& cfg, Rng& rng) {
  FT_CHECK_MSG(data.train_size() > 0, "local_train on empty client shard");
  LocalTrainResult res;
  res.num_samples = data.train_size();

  const Precision& prec = cfg.precision;
  if (prec.enabled()) {
    // Snap incoming server weights onto the half grid so training starts
    // from exactly what a half-width ModelDown payload would deliver
    // (idempotent when the engine already quantized them for the wire).
    for (auto& p : model.params()) p.value->quantize_storage(prec.dtype);
  }
  WeightSet start = model.weights();

  SoftmaxCrossEntropy loss;
  SgdOptions sgd = cfg.sgd;
  const double loss_scale = prec.effective_loss_scale();
  if (prec.enabled()) sgd.loss_scale = loss_scale;
  Sgd opt(model.params(), sgd);
  // Activations round to the half grid at layer seams for the duration of
  // this client's steps (thread-local, so eval probes elsewhere stay fp32).
  ScopedActivationDtype amp(prec.enabled() ? prec.dtype : Dtype::F32);
  Tensor x;
  std::vector<int> y;
  double loss_sum = 0.0;
  for (int s = 0; s < cfg.steps; ++s) {
    sample_batch(data, cfg.batch, rng, x, y);
    Tensor logits = model.forward(x, /*train=*/true);
    loss_sum += loss.forward(logits, y);
    Tensor dlogits = loss.backward();
    if (loss_scale != 1.0) dlogits.mul_(static_cast<float>(loss_scale));
    model.backward(dlogits);
    opt.step();
    if (prec.enabled())
      for (auto& p : model.params()) p.value->quantize_storage(prec.dtype);
  }
  res.avg_loss = loss_sum / cfg.steps;
  res.macs_used = local_train_macs(model, cfg);

  res.delta = std::move(start);
  WeightSet end = model.weights();
  ws_sub(res.delta, end);  // delta = start - end
  if (prec.enabled()) {
    // Both operands sat on the half grid, but their difference need not:
    // re-snap so the update ships 2 bytes/element exactly.
    for (auto& t : res.delta) t.quantize_storage(prec.dtype);
  }
  return res;
}

double evaluate_accuracy(Model& model, const ClientData& data,
                         int eval_batch) {
  const int n = data.eval_size();
  if (n == 0) return 0.0;
  const auto& shape = data.x_eval.shape();
  const auto sample_sz = data.x_eval.numel() / shape[0];
  int correct = 0;
  for (int off = 0; off < n; off += eval_batch) {
    const int b = std::min(eval_batch, n - off);
    Tensor x({b, shape[1], shape[2], shape[3]});
    std::copy_n(data.x_eval.data() + off * sample_sz, b * sample_sz, x.data());
    Tensor logits = model.forward(x, /*train=*/false);
    correct += count_correct(
        logits, std::span<const int>(data.y_eval).subspan(
                    static_cast<std::size_t>(off), static_cast<std::size_t>(b)));
  }
  return static_cast<double>(correct) / n;
}

double evaluate_loss(Model& model, const ClientData& data, int max_samples) {
  const int n = std::min(data.train_size(), max_samples);
  if (n == 0) return 0.0;
  const auto& shape = data.x_train.shape();
  const auto sample_sz = data.x_train.numel() / shape[0];
  Tensor x({n, shape[1], shape[2], shape[3]});
  std::copy_n(data.x_train.data(), n * sample_sz, x.data());
  SoftmaxCrossEntropy loss;
  Tensor logits = model.forward(x, /*train=*/false);
  return loss.forward(logits,
                      std::span<const int>(data.y_train).first(
                          static_cast<std::size_t>(n)));
}

}  // namespace fedtrans
