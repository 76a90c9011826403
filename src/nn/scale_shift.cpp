#include "nn/scale_shift.hpp"

#include "common/check.hpp"
#include "common/vectorize.hpp"

namespace fedtrans {

ScaleShift::ScaleShift(int channels)
    : c_(channels), s_({channels}, 1.0f), gs_({channels}), b_({channels}),
      gb_({channels}) {
  FT_CHECK(channels > 0);
}

FT_VECTORIZE
Tensor ScaleShift::forward(const Tensor& x, bool train) {
  FT_CHECK_MSG((x.ndim() == 4 || x.ndim() == 2) && x.dim(1) == c_,
               "ScaleShift expects channel dim " << c_);
  if (train)
    cached_x_ = x;
  else
    cached_x_ = Tensor();
  Tensor y = x;
  const int n = x.dim(0);
  const auto plane = x.ndim() == 4
                         ? static_cast<std::int64_t>(x.dim(2)) * x.dim(3)
                         : 1;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c_; ++ch) {
      float* p = y.data() + (static_cast<std::int64_t>(b) * c_ + ch) * plane;
      const float sc = s_[ch], sh = b_[ch];
      for (std::int64_t i = 0; i < plane; ++i) p[i] = p[i] * sc + sh;
    }
  }
  return y;
}

FT_VECTORIZE
Tensor ScaleShift::backward(const Tensor& grad_out) {
  FT_CHECK_MSG(grad_out.same_shape(cached_x_),
               "ScaleShift::backward needs a preceding forward(x, train=true)");
  const int n = grad_out.dim(0);
  const auto plane =
      grad_out.ndim() == 4
          ? static_cast<std::int64_t>(grad_out.dim(2)) * grad_out.dim(3)
          : 1;
  Tensor dx = grad_out;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c_; ++ch) {
      const std::int64_t base = (static_cast<std::int64_t>(b) * c_ + ch) *
                                plane;
      const float* g = grad_out.data() + base;
      const float* x = cached_x_.data() + base;
      float* d = dx.data() + base;
      const float sc = s_[ch];
      for (std::int64_t i = 0; i < plane; ++i) d[i] = g[i] * sc;
      // In-order double sums (a float·float product is exact in double).
      double ds = 0.0, db = 0.0;
      for (std::int64_t i = 0; i < plane; ++i) {
        ds += static_cast<double>(g[i]) * x[i];
        db += g[i];
      }
      gs_[ch] += static_cast<float>(ds);
      gb_[ch] += static_cast<float>(db);
    }
  }
  return dx;
}

std::vector<ParamRef> ScaleShift::params() {
  return {{&s_, &gs_, "scale"}, {&b_, &gb_, "shift"}};
}

std::unique_ptr<Layer> ScaleShift::clone() const {
  auto copy = std::make_unique<ScaleShift>(c_);
  copy->s_ = s_;
  copy->b_ = b_;
  return copy;
}

}  // namespace fedtrans
