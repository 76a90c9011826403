#include "nn/conv2d.hpp"

#include <cmath>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding < 0 ? kernel / 2 : padding),
      has_bias_(bias),
      w_({out_channels, in_channels, kernel, kernel}),
      gw_({out_channels, in_channels, kernel, kernel}),
      b_(bias ? Tensor({out_channels}) : Tensor()),
      gb_(bias ? Tensor({out_channels}) : Tensor()) {
  FT_CHECK(in_c_ > 0 && out_c_ > 0 && k_ > 0 && stride_ > 0 && pad_ >= 0);
}

void Conv2d::init(Rng& rng) {
  const float fan_in = static_cast<float>(in_c_ * k_ * k_);
  const float bound = std::sqrt(6.0f / fan_in);
  w_.rand_uniform(rng, -bound, bound);
  if (has_bias_) b_.zero();
}

void Conv2d::init_identity() {
  FT_CHECK_MSG(in_c_ == out_c_ && k_ % 2 == 1 && stride_ == 1,
               "identity conv requires in==out, odd kernel, stride 1");
  w_.zero();
  const int c = k_ / 2;
  for (int o = 0; o < out_c_; ++o) w_.at(o, o, c, c) = 1.0f;
  if (has_bias_) b_.zero();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  FT_SPAN("kernel", "conv2d_fwd");
  FT_CHECK_MSG(x.ndim() == 4 && x.dim(1) == in_c_,
               "Conv2d expects [N," << in_c_ << ",H,W]");
  cache_.clear();
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_hw(h), ow = out_hw(w);
  FT_CHECK_MSG(oh > 0 && ow > 0, "conv output collapsed to zero size");
  Tensor y({n, out_c_, oh, ow});
  if (conv_backend() == ConvBackend::Im2col) {
    const ConvDims d{in_c_, out_c_, k_, stride_, pad_, /*groups=*/1};
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

void Conv2d::forward_direct(const Tensor& x, Tensor& y) {
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const float* xp = x.data();
  float* yp = y.data();
  const float* wp = w_.data();
  const auto in_plane = static_cast<std::int64_t>(h) * w;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  for (int b = 0; b < n; ++b) {
    const float* xb = xp + b * in_c_ * in_plane;
    float* yb = yp + b * out_c_ * out_plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const float bias = has_bias_ ? b_[oc] : 0.0f;
      float* yo = yb + oc * out_plane;
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) yo[oy * ow + ox] = bias;
      for (int ic = 0; ic < in_c_; ++ic) {
        const float* xi = xb + ic * in_plane;
        const float* wk = wp + (static_cast<std::int64_t>(oc) * in_c_ + ic) *
                                   k_ * k_;
        for (int ky = 0; ky < k_; ++ky) {
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
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out, /*want_dx=*/true);
}

void Conv2d::backward_params(const Tensor& grad_out) {
  backward_impl(grad_out, /*want_dx=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_out, bool want_dx) {
  FT_SPAN("kernel", "conv2d_bwd");
  FT_CHECK_MSG(!cache_.empty(),
               "Conv2d::backward needs a preceding forward(x, train=true)");
  const std::vector<int>& in = cache_.in_shape;
  FT_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == in[0] &&
           grad_out.dim(1) == out_c_ && grad_out.dim(2) == out_hw(in[2]) &&
           grad_out.dim(3) == out_hw(in[3]));
  Tensor dx;
  if (cache_.panels) {
    const ConvDims d{in_c_, out_c_, k_, stride_, pad_, /*groups=*/1};
    dx = conv_backward_im2col(cache_, grad_out, w_, gw_,
                              has_bias_ ? &gb_ : nullptr, d, want_dx);
  } else {
    // The reference loop nest produces dX and dW together.
    dx = backward_direct(grad_out);
  }
  cache_.clear();
  return dx;
}

Tensor Conv2d::backward_direct(const Tensor& grad_out) {
  const Tensor& x = cache_.x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_hw(h), ow = out_hw(w);
  Tensor dx({n, in_c_, h, w});
  const auto in_plane = static_cast<std::int64_t>(h) * w;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  const float* gp = grad_out.data();
  const float* xp = x.data();
  const float* wp = w_.data();
  float* gwp = gw_.data();
  float* dxp = dx.data();

  for (int b = 0; b < n; ++b) {
    const float* xb = xp + b * in_c_ * in_plane;
    const float* gb = gp + b * out_c_ * out_plane;
    float* dxb = dxp + b * in_c_ * in_plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* go = gb + oc * out_plane;
      if (has_bias_) {
        double s = 0.0;
        for (std::int64_t i = 0; i < out_plane; ++i) s += go[i];
        gb_[oc] += static_cast<float>(s);
      }
      for (int ic = 0; ic < in_c_; ++ic) {
        const float* xi = xb + ic * in_plane;
        float* dxi = dxb + ic * in_plane;
        const std::int64_t wbase =
            (static_cast<std::int64_t>(oc) * in_c_ + ic) * k_ * k_;
        for (int ky = 0; ky < k_; ++ky) {
          for (int kx = 0; kx < k_; ++kx) {
            const float wv = wp[wbase + ky * k_ + kx];
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
                const float g = grow[ox];
                gw_acc += static_cast<double>(g) * xrow[ix];
                dxrow[ix] += wv * g;
              }
            }
            gwp[wbase + ky * k_ + kx] += static_cast<float>(gw_acc);
          }
        }
      }
    }
  }
  return dx;
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> ps{{&w_, &gw_, "weight"}};
  if (has_bias_) ps.push_back({&b_, &gb_, "bias"});
  return ps;
}

std::int64_t Conv2d::macs(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 3 && in_shape[0] == in_c_);
  const int oh = out_hw(in_shape[1]), ow = out_hw(in_shape[2]);
  return static_cast<std::int64_t>(out_c_) * in_c_ * k_ * k_ * oh * ow;
}

std::vector<int> Conv2d::out_shape(const std::vector<int>& in_shape) const {
  FT_CHECK(in_shape.size() == 3 && in_shape[0] == in_c_);
  return {out_c_, out_hw(in_shape[1]), out_hw(in_shape[2])};
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::make_unique<Conv2d>(in_c_, out_c_, k_, stride_, pad_,
                                       has_bias_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

}  // namespace fedtrans
