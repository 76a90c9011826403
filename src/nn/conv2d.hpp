#pragma once

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace fedtrans {

/// 2-D convolution over NCHW input. Weight layout [out_c, in_c, k, k];
/// square kernel, symmetric padding. Forward/backward lower onto the blocked
/// GEMM via im2col/col2im by default; the original direct loop nest is kept
/// as a reference implementation selectable through set_conv_backend() for
/// parity testing. backward() runs on the backend its forward used.
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride = 1,
         int padding = -1 /* -1 = same (k/2) */, bool bias = true);

  /// He-uniform initialization.
  void init(Rng& rng);
  /// Dirac-delta identity initialization (used by function-preserving
  /// deepen on non-residual cells). Requires in==out and odd kernel.
  void init_identity();

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// gw/gb exactly as backward() accumulates them, without computing dX.
  void backward_params(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::int64_t macs(const std::vector<int>& in_shape) const override;
  std::vector<int> out_shape(const std::vector<int>& in_shape) const override;
  std::string name() const override { return "Conv2d"; }
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  bool has_bias() const { return has_bias_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  int out_hw(int in_hw) const { return (in_hw + 2 * pad_ - k_) / stride_ + 1; }
  void forward_direct(const Tensor& x, Tensor& y);
  Tensor backward_impl(const Tensor& grad_out, bool want_dx);
  Tensor backward_direct(const Tensor& grad_out);

  int in_c_, out_c_, k_, stride_, pad_;
  bool has_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  ConvCache cache_;
};

}  // namespace fedtrans
