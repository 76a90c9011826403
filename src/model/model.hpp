#pragma once

#include <memory>

#include "model/spec.hpp"
#include "nn/layer.hpp"

namespace fedtrans {

/// A unit of computation inside a Cell: a short sequence of layers with an
/// optional residual skip (y = x + f(x), post-activation add, which makes
/// zero-initialized insertions exactly identity).
class Block {
 public:
  Block(std::vector<std::unique_ptr<Layer>> layers, bool residual);

  Tensor forward(const Tensor& x, bool train);
  Tensor backward(const Tensor& grad_out);
  /// Parameter gradients only (the stem, whose input gradient nobody reads):
  /// the first layer runs Layer::backward_params.
  void backward_params(const Tensor& grad_out);

  std::vector<ParamRef> params();
  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }
  bool residual() const { return residual_; }

  std::int64_t macs(const std::vector<int>& in_shape) const;
  std::vector<int> out_shape(const std::vector<int>& in_shape) const;
  std::unique_ptr<Block> clone() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  bool residual_;
};

/// A trainable model instantiated from a ModelSpec:
///   stem -> Cell_0 ... Cell_{k-1} -> (pool) -> classifier.
/// Exposes parameters grouped per Cell — the granularity at which FedTrans
/// measures activeness, transforms architectures, and shares weights.
class Model {
 public:
  /// Fresh (randomly initialized) model.
  Model(ModelSpec spec, Rng& rng);
  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) noexcept = default;
  Model& operator=(Model&&) noexcept = default;

  /// Logits [N, classes] for input x ([N,C,H,W] or [N,F] for Mlp).
  Tensor forward(const Tensor& x, bool train);
  /// Backprop from dLoss/dLogits; accumulates all parameter gradients.
  void backward(const Tensor& grad_logits);
  void zero_grad();

  const ModelSpec& spec() const { return spec_; }
  int num_cells() const { return static_cast<int>(cells_.size()); }

  /// All trainable parameters in a stable order (stem, cells, classifier).
  std::vector<ParamRef> params();
  /// Parameters of one Cell (all its blocks).
  std::vector<ParamRef> cell_params(int cell);
  /// [begin, end) index range into params() covering one Cell's parameters
  /// (used to slice aggregate-update WeightSets per Cell).
  std::pair<std::size_t, std::size_t> cell_param_range(int cell);

  int blocks_in_cell(int cell) const;
  Block& cell_block(int cell, int block);
  Block& stem() { return *stem_; }
  Layer& classifier() { return *classifier_; }

  /// Per-sample forward MACs (computed once at construction).
  std::int64_t macs() const { return macs_; }
  std::int64_t num_params() const;
  /// fp32 in-memory / on-wire footprint of the weights.
  std::int64_t param_bytes() const { return num_params() * 4; }
  std::int64_t cell_macs(int cell) const;

  /// Snapshot / restore all weights (order matches params()).
  std::vector<Tensor> weights();
  void set_weights(const std::vector<Tensor>& ws);

 private:
  void build(Rng& rng);
  void compute_macs();

  ModelSpec spec_;
  std::unique_ptr<Block> stem_;
  std::vector<std::vector<std::unique_ptr<Block>>> cells_;
  std::unique_ptr<Layer> head_pool_;  // GAP / MeanTokens / null (Mlp)
  std::unique_ptr<Layer> classifier_;
  std::int64_t macs_ = 0;
  std::vector<std::int64_t> cell_macs_;
};

}  // namespace fedtrans
