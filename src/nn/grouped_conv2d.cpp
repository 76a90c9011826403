#include "nn/grouped_conv2d.hpp"

#include <cmath>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "nn/activations.hpp"
#include "nn/sequential.hpp"

namespace fedtrans {

namespace {

// Validated in-channels-per-group; runs before any member that divides by
// `groups` is initialized (a plain constructor-body check would come too
// late — the weight-tensor initializer already divides).
int checked_group_channels(int in_channels, int out_channels, int groups) {
  FT_CHECK_MSG(groups > 0 && in_channels > 0 && out_channels > 0 &&
                   in_channels % groups == 0 && out_channels % groups == 0,
               "groups must divide both channel counts (" << in_channels
                                                          << ", "
                                                          << out_channels
                                                          << ")");
  return in_channels / groups;
}

}  // namespace

GroupedConv2d::GroupedConv2d(int in_channels, int out_channels, int kernel,
                             int groups, int stride, int padding, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      groups_(groups),
      stride_(stride),
      pad_(padding < 0 ? kernel / 2 : padding),
      has_bias_(bias),
      w_({out_channels, checked_group_channels(in_channels, out_channels,
                                               groups),
          kernel, kernel}),
      gw_({out_channels, in_channels / groups, kernel, kernel}),
      b_(bias ? Tensor({out_channels}) : Tensor()),
      gb_(bias ? Tensor({out_channels}) : Tensor()) {
  FT_CHECK(k_ > 0 && stride_ > 0 && pad_ >= 0);
}

void GroupedConv2d::init(Rng& rng) {
  const float fan_in = static_cast<float>((in_c_ / groups_) * k_ * k_);
  const float bound = std::sqrt(6.0f / fan_in);
  w_.rand_uniform(rng, -bound, bound);
  if (has_bias_) b_.zero();
}

Tensor GroupedConv2d::forward(const Tensor& x, bool train) {
  FT_SPAN("kernel", "grouped_conv2d_fwd");
  FT_CHECK_MSG(x.ndim() == 4 && x.dim(1) == in_c_,
               "GroupedConv2d expects [N," << in_c_ << ",H,W]");
  cache_.clear();
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_hw(h), ow = out_hw(w);
  FT_CHECK_MSG(oh > 0 && ow > 0, "conv output collapsed to zero size");
  Tensor y({n, out_c_, oh, ow});
  if (conv_backend() == ConvBackend::Im2col) {
    const ConvDims d{in_c_, out_c_, k_, stride_, pad_, groups_};
    conv_forward_im2col(x, w_, has_bias_ ? &b_ : nullptr, d, y,
                        train ? &cache_ : nullptr);
  } else {
    if (train) {
      cache_.in_shape = x.shape();
      cache_.x = x;
    }
    forward_direct(x, y);
  }
  return y;
}

void GroupedConv2d::forward_direct(const Tensor& x, Tensor& y) {
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const int icg = in_c_ / groups_;  // in channels per group
  const int ocg = out_c_ / groups_;

  const auto in_plane = static_cast<std::int64_t>(h) * w;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + b * in_c_ * in_plane;
    float* yb = y.data() + b * out_c_ * out_plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const int g = oc / ocg;
      const float bias = has_bias_ ? b_[oc] : 0.0f;
      float* yo = yb + oc * out_plane;
      for (std::int64_t i = 0; i < out_plane; ++i) yo[i] = bias;
      for (int icl = 0; icl < icg; ++icl) {  // channel index within group
        const int ic = g * icg + icl;
        const float* xi = xb + ic * in_plane;
        const float* wk =
            w_.data() +
            (static_cast<std::int64_t>(oc) * icg + icl) * k_ * k_;
        for (int ky = 0; ky < k_; ++ky)
          for (int kx = 0; kx < k_; ++kx) {
            const float wv = wk[ky * k_ + kx];
            if (wv == 0.0f) continue;
            for (int oy = 0; oy < oh; ++oy) {
              const int iy = oy * stride_ - pad_ + ky;
              if (iy < 0 || iy >= h) continue;
              float* yrow = yo + oy * ow;
              const float* xrow = xi + iy * w;
              for (int ox = 0; ox < ow; ++ox) {
                const int ix = ox * stride_ - pad_ + kx;
                if (ix < 0 || ix >= w) continue;
                yrow[ox] += wv * xrow[ix];
              }
            }
          }
      }
    }
  }
}

Tensor GroupedConv2d::backward(const Tensor& grad_out) {
  FT_SPAN("kernel", "grouped_conv2d_bwd");
  FT_CHECK_MSG(!cache_.empty(),
               "GroupedConv2d::backward needs a preceding "
               "forward(x, train=true)");
  const std::vector<int>& in = cache_.in_shape;
  FT_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == in[0] &&
           grad_out.dim(1) == out_c_ && grad_out.dim(2) == out_hw(in[2]) &&
           grad_out.dim(3) == out_hw(in[3]));
  const ConvDims d{in_c_, out_c_, k_, stride_, pad_, groups_};
  Tensor dx = cache_.panels
                  ? conv_backward_im2col(cache_, grad_out, w_, gw_,
                                         has_bias_ ? &gb_ : nullptr, d)
                  : backward_direct(grad_out);
  cache_.clear();
  return dx;
}

Tensor GroupedConv2d::backward_direct(const Tensor& grad_out) {
  const Tensor& x = cache_.x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_hw(h), ow = out_hw(w);
  const int icg = in_c_ / groups_;
  const int ocg = out_c_ / groups_;

  Tensor dx({n, in_c_, h, w});
  const auto in_plane = static_cast<std::int64_t>(h) * w;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  for (int b = 0; b < n; ++b) {
    const float* xb = x.data() + b * in_c_ * in_plane;
    const float* gbatch = grad_out.data() + b * out_c_ * out_plane;
    float* dxb = dx.data() + b * in_c_ * in_plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const int g = oc / ocg;
      const float* go = gbatch + oc * out_plane;
      if (has_bias_) {
        double s = 0.0;
        for (std::int64_t i = 0; i < out_plane; ++i) s += go[i];
        gb_[oc] += static_cast<float>(s);
      }
      for (int icl = 0; icl < icg; ++icl) {
        const int ic = g * icg + icl;
        const float* xi = xb + ic * in_plane;
        float* dxi = dxb + ic * in_plane;
        const std::int64_t wbase =
            (static_cast<std::int64_t>(oc) * icg + icl) * k_ * k_;
        for (int ky = 0; ky < k_; ++ky)
          for (int kx = 0; kx < k_; ++kx) {
            const float wv = w_[wbase + ky * k_ + kx];
            double gw_acc = 0.0;
            for (int oy = 0; oy < oh; ++oy) {
              const int iy = oy * stride_ - pad_ + ky;
              if (iy < 0 || iy >= h) continue;
              const float* grow = go + oy * ow;
              const float* xrow = xi + iy * w;
              float* dxrow = dxi + iy * w;
              for (int ox = 0; ox < ow; ++ox) {
                const int ix = ox * stride_ - pad_ + kx;
                if (ix < 0 || ix >= w) continue;
                const float gval = grow[ox];
                gw_acc += static_cast<double>(gval) * xrow[ix];
                dxrow[ix] += wv * gval;
              }
            }
            gw_[wbase + ky * k_ + kx] += static_cast<float>(gw_acc);
          }
      }
    }
  }
  return dx;
}

std::vector<ParamRef> GroupedConv2d::params() {
  std::vector<ParamRef> ps{{&w_, &gw_, "weight"}};
  if (has_bias_) ps.push_back({&b_, &gb_, "bias"});
  return ps;
}

std::int64_t GroupedConv2d::macs(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 3 && in_shape[0] == in_c_);
  const int oh = out_hw(in_shape[1]), ow = out_hw(in_shape[2]);
  return static_cast<std::int64_t>(out_c_) * (in_c_ / groups_) * k_ * k_ *
         oh * ow;
}

std::vector<int> GroupedConv2d::out_shape(
    const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 3 && in_shape[0] == in_c_);
  return {out_c_, out_hw(in_shape[1]), out_hw(in_shape[2])};
}

std::unique_ptr<Layer> GroupedConv2d::clone() const {
  auto copy = std::make_unique<GroupedConv2d>(in_c_, out_c_, k_, groups_,
                                              stride_, pad_, has_bias_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

std::unique_ptr<Conv2d> GroupedConv2d::to_dense() const {
  auto dense =
      std::make_unique<Conv2d>(in_c_, out_c_, k_, stride_, pad_, has_bias_);
  dense->weight().zero();
  const int icg = in_c_ / groups_;
  const int ocg = out_c_ / groups_;
  for (int oc = 0; oc < out_c_; ++oc) {
    const int g = oc / ocg;
    for (int icl = 0; icl < icg; ++icl) {
      const int ic = g * icg + icl;
      for (int ky = 0; ky < k_; ++ky)
        for (int kx = 0; kx < k_; ++kx)
          dense->weight().at(oc, ic, ky, kx) = w_.at(oc, icl, ky, kx);
    }
  }
  if (has_bias_) dense->bias() = b_;
  return dense;
}

std::unique_ptr<Layer> make_depthwise_separable(int in_channels,
                                                int out_channels, int kernel,
                                                int stride, Rng& rng) {
  auto dw = std::make_unique<GroupedConv2d>(in_channels, in_channels, kernel,
                                            /*groups=*/in_channels, stride);
  dw->init(rng);
  auto pw = std::make_unique<Conv2d>(in_channels, out_channels, /*kernel=*/1,
                                     /*stride=*/1, /*padding=*/0);
  pw->init(rng);
  auto seq = std::make_unique<Sequential>();
  seq->add(std::move(dw));
  seq->add(std::make_unique<ReLU>());
  seq->add(std::move(pw));
  return seq;
}

}  // namespace fedtrans
