#include "nn/sgd.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/vectorize.hpp"

namespace fedtrans {

Sgd::Sgd(std::vector<ParamRef> params, SgdOptions opts)
    : params_(std::move(params)), opts_(opts) {
  FT_CHECK(opts_.lr > 0.0);
  FT_CHECK(opts_.loss_scale > 0.0);
  if (opts_.momentum > 0.0) {
    velocity_.reserve(params_.size());
    for (const auto& p : params_) velocity_.emplace_back(p.value->shape());
  }
  if (opts_.prox_mu > 0.0) set_prox_anchor();
}

void Sgd::set_prox_anchor() {
  anchor_.clear();
  anchor_.reserve(params_.size());
  for (const auto& p : params_) anchor_.push_back(*p.value);
}

FT_VECTORIZE
void Sgd::step() {
  if (opts_.loss_scale != 1.0) {
    const float inv = static_cast<float>(1.0 / opts_.loss_scale);
    for (auto& p : params_) p.grad->mul_(inv);
  }
  if (opts_.clip_norm > 0.0) {
    double total = 0.0;
    for (auto& p : params_) {
      const double n = p.grad->l2_norm();
      total += n * n;
    }
    total = std::sqrt(total);
    if (total > opts_.clip_norm) {
      const float scale = static_cast<float>(opts_.clip_norm / total);
      for (auto& p : params_) p.grad->mul_(scale);
    }
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& w = *params_[i].value;
    Tensor& g = *params_[i].grad;
    FT_CHECK(w.same_shape(g));
    if (opts_.weight_decay > 0.0)
      g.axpy_(static_cast<float>(opts_.weight_decay), w);
    if (opts_.prox_mu > 0.0) {
      FT_CHECK_MSG(anchor_.size() == params_.size(),
                   "prox anchor not captured");
      // g += μ (w − anchor)
      for (std::int64_t j = 0; j < w.numel(); ++j)
        g[j] += static_cast<float>(opts_.prox_mu) * (w[j] - anchor_[i][j]);
    }
    if (opts_.momentum > 0.0) {
      Tensor& v = velocity_[i];
      v.mul_(static_cast<float>(opts_.momentum));
      v.add_(g);
      w.axpy_(static_cast<float>(-opts_.lr), v);
    } else {
      w.axpy_(static_cast<float>(-opts_.lr), g);
    }
    g.zero();
  }
}

}  // namespace fedtrans
