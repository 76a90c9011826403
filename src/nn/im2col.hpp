#pragma once

#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace fedtrans {

/// Which convolution implementation Conv2d / GroupedConv2d dispatch to.
/// `Im2col` (default) lowers the convolution onto the blocked GEMM; `Direct`
/// keeps the original loop nest as an auditable reference for parity tests.
/// Initial value can be forced with FEDTRANS_CONV_BACKEND=direct|im2col.
enum class ConvBackend { Im2col, Direct };
ConvBackend conv_backend();
void set_conv_backend(ConvBackend backend);

/// Unfold one NCHW image plane-stack (`channels` × h × w) into a
/// [channels·k·k, oh·ow] column matrix (Caffe layout: channel-major rows,
/// spatial-major columns); out-of-bounds taps are zero. `ld` is the row
/// stride of the destination (row r starts at col + r·ld), which lets
/// several images unfold side by side into one wide batch panel; the
/// default -1 means oh·ow (a self-contained single-image matrix).
void im2col(const float* im, int channels, int h, int w, int kernel,
            int stride, int pad, float* col, std::int64_t ld = -1);

/// Scatter-add a [channels·k·k, oh·ow] column matrix back into the image it
/// was unfolded from (the adjoint of im2col). Accumulates into `im`. `ld`
/// strides the source rows exactly as in im2col.
void col2im(const float* col, int channels, int h, int w, int kernel,
            int stride, int pad, float* im, std::int64_t ld = -1);

/// Grouped-convolution geometry shared by Conv2d (groups == 1) and
/// GroupedConv2d. Weight layout [out_c, in_c/groups, k, k].
struct ConvDims {
  int in_c = 0;
  int out_c = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;
  int groups = 1;
};

/// What a conv layer's training forward leaves for its backward. The
/// im2col lowering keeps its column panels — every batch tile and group,
/// exactly as the forward GEMMs read them — so backward computes dW from
/// them instead of unfolding x a second time; the Direct reference keeps a
/// copy of x instead. Empty after an eval forward and after backward, which
/// consumes it. A copied layer starts empty, as a clone() does.
struct ConvCache {
  std::vector<int> in_shape;  ///< [N, C, H, W] of the input; empty = none
  std::unique_ptr<float[]> panels;  ///< im2col backend
  Tensor x;                         ///< Direct backend

  ConvCache() = default;
  ConvCache(const ConvCache&) {}
  ConvCache& operator=(const ConvCache&) {
    clear();
    return *this;
  }
  ConvCache(ConvCache&&) = default;
  ConvCache& operator=(ConvCache&&) = default;

  bool empty() const { return in_shape.empty(); }
  void clear() {
    in_shape.clear();
    panels.reset();
    x = Tensor();
  }
};

/// y[N, out_c, oh, ow] = conv(x) + bias, lowered per group onto
/// gemm(W_g [ocg, icg·k·k] × col_g [icg·k·k, bt·oh·ow]) where the column
/// panel concatenates a tile of `bt` batch images along N — so grouped
/// models get dense-sized GEMMs instead of one sliver per (image, group).
/// `bias` may be null. With `keep`, the panels are unfolded into (and left
/// in) keep->panels for conv_backward_im2col; without, into a thread-local
/// scratch buffer.
void conv_forward_im2col(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y,
                         ConvCache* keep = nullptr);

/// Backward pass of the same lowering from the panels a training forward
/// kept: accumulates into `gw` (and `gb` if non-null) and returns dL/dx.
/// `grad_out` is [N, out_c, oh, ow]. With `want_dx` false (a model's first
/// layer, whose input gradient nobody reads) the dcol GEMM and col2im are
/// skipped and an empty tensor is returned; gw/gb are bitwise the same.
Tensor conv_backward_im2col(const ConvCache& cache, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d, bool want_dx = true);

}  // namespace fedtrans
