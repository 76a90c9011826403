#pragma once

#include "nn/conv2d.hpp"

namespace fedtrans {

/// Grouped 2-D convolution: input channels are split into `groups` equal
/// slices, each convolved with its own filter bank. groups == in_channels ==
/// out_channels gives a depthwise convolution (the MobileNet building
/// block). Weight layout [out_c, in_c/groups, k, k].
///
/// The paper's appendix notes that HeteroFL and SplitMix do not support
/// grouped convolutions, so grouped layers are converted to dense ones
/// before those baselines run — `to_dense()` implements exactly that
/// conversion (a dense conv whose cross-group weights are zero computes the
/// same function at higher MAC cost).
class GroupedConv2d : public Layer {
 public:
  GroupedConv2d(int in_channels, int out_channels, int kernel, int groups,
                int stride = 1, int padding = -1 /* -1 = same */,
                bool bias = true);

  void init(Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  std::int64_t macs(const std::vector<int>& in_shape) const override;
  std::vector<int> out_shape(const std::vector<int>& in_shape) const override;
  std::string name() const override { return "GroupedConv2d"; }
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int kernel() const { return k_; }
  int groups() const { return groups_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  bool has_bias() const { return has_bias_; }
  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

  /// Equivalent dense (groups = 1) convolution: weights are block-diagonal
  /// across groups, zero elsewhere. Output is bit-identical on the same
  /// input; MACs grow by the group count (the "potentially increases the
  /// complexity" the paper accepts for baseline compatibility).
  std::unique_ptr<Conv2d> to_dense() const;

 private:
  int out_hw(int in_hw) const { return (in_hw + 2 * pad_ - k_) / stride_ + 1; }
  void forward_direct(const Tensor& x, Tensor& y);
  Tensor backward_direct(const Tensor& grad_out);

  int in_c_, out_c_, k_, groups_, stride_, pad_;
  bool has_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  ConvCache cache_;
};

/// Depthwise-separable convolution block (depthwise k×k + pointwise 1×1),
/// the MobileNet-family primitive, assembled from the substrate layers.
std::unique_ptr<Layer> make_depthwise_separable(int in_channels,
                                                int out_channels, int kernel,
                                                int stride, Rng& rng);

}  // namespace fedtrans
