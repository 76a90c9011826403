#include "nn/im2col.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/vectorize.hpp"

namespace fedtrans {

namespace {

ConvBackend initial_backend() {
  if (const char* env = std::getenv("FEDTRANS_CONV_BACKEND")) {
    if (std::strcmp(env, "direct") == 0) return ConvBackend::Direct;
  }
  return ConvBackend::Im2col;
}

std::atomic<ConvBackend> g_backend{initial_backend()};

inline int conv_out(int in, int kernel, int stride, int pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

// Column-buffer budget for the batched lowering: images are tiled so one
// group's [ckk, bt·oh·ow] panel stays within this many bytes.
constexpr std::int64_t kColBudgetBytes = 8 << 20;

// Images per tile under kColBudgetBytes (at least one).
int tile_images(int ckk, std::int64_t out_plane) {
  return std::max<int>(
      1, static_cast<int>(kColBudgetBytes /
                          (static_cast<std::int64_t>(sizeof(float)) *
                           std::max(ckk, 1) *
                           std::max<std::int64_t>(out_plane, 1))));
}

// Start of the kept panel of group g in the tile of `bt` images at b0.
std::int64_t panel_offset(int b0, int bt, int g, int groups, int ckk,
                          std::int64_t out_plane) {
  return (static_cast<std::int64_t>(b0) * groups +
          static_cast<std::int64_t>(g) * bt) *
         ckk * out_plane;
}

// Output columns [lo, hi) of kernel column kx whose input column
// ix = ox·stride + off (off = kx − pad) lies inside [0, w): the unfold and
// fold loops handle the zero edges and the in-bounds interior separately
// instead of testing every element.
struct TapRange {
  int lo, hi, off;
};
inline TapRange tap_range(int w, int ow, int stride, int pad, int kx) {
  const int off = kx - pad;
  const int lo = std::min(ow, off >= 0 ? 0 : (stride - 1 - off) / stride);
  const int hi = w - off <= 0 ? 0 : (w - off + stride - 1) / stride;
  return {lo, std::clamp(hi, lo, ow), off};
}

}  // namespace

ConvBackend conv_backend() { return g_backend.load(std::memory_order_relaxed); }
void set_conv_backend(ConvBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

FT_VECTORIZE
void im2col(const float* im, int channels, int h, int w, int kernel,
            int stride, int pad, float* col, std::int64_t ld) {
  const int oh = conv_out(h, kernel, stride, pad);
  const int ow = conv_out(w, kernel, stride, pad);
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  if (ld < 0) ld = out_plane;
  float* row_base = col;
  for (int c = 0; c < channels; ++c) {
    const float* imc = im + static_cast<std::int64_t>(c) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const TapRange t = tap_range(w, ow, stride, pad, kx);
        float* out = row_base;
        for (int oy = 0; oy < oh; ++oy, out += ow) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) {
            std::fill(out, out + ow, 0.0f);
            continue;
          }
          const float* row = imc + static_cast<std::int64_t>(iy) * w;
          std::fill(out, out + t.lo, 0.0f);
          if (stride == 1) {
            std::copy(row + t.lo + t.off, row + t.hi + t.off, out + t.lo);
          } else {
            for (int ox = t.lo; ox < t.hi; ++ox)
              out[ox] = row[ox * stride + t.off];
          }
          std::fill(out + t.hi, out + ow, 0.0f);
        }
        row_base += ld;
      }
    }
  }
}

FT_VECTORIZE
void col2im(const float* col, int channels, int h, int w, int kernel,
            int stride, int pad, float* im, std::int64_t ld) {
  const int oh = conv_out(h, kernel, stride, pad);
  const int ow = conv_out(w, kernel, stride, pad);
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;
  if (ld < 0) ld = out_plane;
  const float* row_base = col;
  // Each image element receives its adds in the same (c, ky, kx, oy)
  // sequence as a per-element bounds-tested loop would give it: one tap's
  // row pass touches an element at most once.
  for (int c = 0; c < channels; ++c) {
    float* imc = im + static_cast<std::int64_t>(c) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const TapRange t = tap_range(w, ow, stride, pad, kx);
        const float* in = row_base;
        for (int oy = 0; oy < oh; ++oy, in += ow) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          float* row = imc + static_cast<std::int64_t>(iy) * w;
          if (stride == 1) {
            for (int ox = t.lo; ox < t.hi; ++ox) row[ox + t.off] += in[ox];
          } else {
            for (int ox = t.lo; ox < t.hi; ++ox)
              row[ox * stride + t.off] += in[ox];
          }
        }
        row_base += ld;
      }
    }
  }
}

// Both lowerings batch the whole image tile into ONE [ckk, bt·oh·ow] column
// panel per group before calling gemm. Per-(image, group) GEMMs — the
// historical shape — have N = oh·ow, which for FedTrans's narrow grouped
// models is far too small to amortize panel packing (most fell through to
// the plain-loop path entirely); concatenating the batch along N restores a
// dense-sized GEMM per group. Each output element's K-dot runs in the same
// ascending order as before, so forward results are unchanged and backward
// only reassociates the gW batch sum (covered by tolerance parity tests).
//
// A training forward keeps every (tile, group) panel: tiles in batch order,
// each holding its groups' panels back to back, so panel (b0, g) of a tile
// of `bt` images starts at (b0·groups + g·bt)·ckk·oh·ow.

FT_VECTORIZE
void conv_forward_im2col(const Tensor& x, const Tensor& w, const Tensor* bias,
                         const ConvDims& d, Tensor& y, ConvCache* keep) {
  const int n = x.dim(0), h = x.dim(2), wdt = x.dim(3);
  const int oh = y.dim(2), ow = y.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int ckk = icg * d.kernel * d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  const int bt_max = tile_images(ckk, out_plane);
  thread_local std::vector<float> scratch;
  thread_local std::vector<float> ybuf;
  if (keep) {
    keep->in_shape = x.shape();
    keep->panels = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(n) * d.groups * ckk * out_plane);
  }

  for (int b0 = 0; b0 < n; b0 += bt_max) {
    const int bt = std::min(bt_max, n - b0);
    const auto ncols = static_cast<std::int64_t>(bt) * out_plane;
    if (!keep) scratch.resize(static_cast<std::size_t>(ckk) * ncols);
    for (int g = 0; g < d.groups; ++g) {
      float* col = keep ? keep->panels.get() +
                              panel_offset(b0, bt, g, d.groups, ckk, out_plane)
                        : scratch.data();
      for (int bi = 0; bi < bt; ++bi)
        im2col(x.data() +
                   (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                       in_plane,
               icg, h, wdt, d.kernel, d.stride, d.pad,
               col + static_cast<std::int64_t>(bi) * out_plane, ncols);
      const float* w_g = w.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      if (bt == 1) {
        // Single image: gemm writes straight into y's [oc, oh·ow] rows.
        gemm(false, false, ocg, static_cast<int>(out_plane), ckk, 1.0f, w_g,
             ckk, col, static_cast<int>(out_plane), 0.0f,
             y.data() + (static_cast<std::int64_t>(b0) * d.out_c + g * ocg) *
                            out_plane,
             static_cast<int>(out_plane));
      } else {
        ybuf.resize(static_cast<std::size_t>(ocg) * ncols);
        gemm(false, false, ocg, static_cast<int>(ncols), ckk, 1.0f, w_g, ckk,
             col, static_cast<int>(ncols), 0.0f, ybuf.data(),
             static_cast<int>(ncols));
        // Scatter the [ocg, bt·oh·ow] panel back to NCHW.
        for (int bi = 0; bi < bt; ++bi) {
          float* yb =
              y.data() +
              (static_cast<std::int64_t>(b0 + bi) * d.out_c + g * ocg) *
                  out_plane;
          for (int oc = 0; oc < ocg; ++oc)
            std::memcpy(yb + static_cast<std::int64_t>(oc) * out_plane,
                        ybuf.data() + static_cast<std::int64_t>(oc) * ncols +
                            static_cast<std::int64_t>(bi) * out_plane,
                        static_cast<std::size_t>(out_plane) * sizeof(float));
        }
      }
    }
  }

  if (bias) {
    for (int b = 0; b < n; ++b) {
      float* yb = y.data() + static_cast<std::int64_t>(b) * d.out_c * out_plane;
      for (int oc = 0; oc < d.out_c; ++oc) {
        const float bv = (*bias)[oc];
        float* row = yb + static_cast<std::int64_t>(oc) * out_plane;
        for (std::int64_t i = 0; i < out_plane; ++i) row[i] += bv;
      }
    }
  }
}

FT_VECTORIZE
Tensor conv_backward_im2col(const ConvCache& cache, const Tensor& grad_out,
                            const Tensor& w, Tensor& gw, Tensor* gb,
                            const ConvDims& d, bool want_dx) {
  FT_CHECK_MSG(cache.panels != nullptr && cache.in_shape.size() == 4,
               "conv backward needs the panels of a training forward");
  const int n = cache.in_shape[0], h = cache.in_shape[2],
            wdt = cache.in_shape[3];
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  const int icg = d.in_c / d.groups;
  const int ocg = d.out_c / d.groups;
  const int ckk = icg * d.kernel * d.kernel;
  const auto in_plane = static_cast<std::int64_t>(h) * wdt;
  const auto out_plane = static_cast<std::int64_t>(oh) * ow;

  Tensor dx;
  if (want_dx) dx = Tensor({n, d.in_c, h, wdt});

  if (gb) {
    for (int b = 0; b < n; ++b) {
      const float* gob =
          grad_out.data() + static_cast<std::int64_t>(b) * d.out_c * out_plane;
      for (int oc = 0; oc < d.out_c; ++oc) {
        const float* go = gob + static_cast<std::int64_t>(oc) * out_plane;
        double s = 0.0;
        for (std::int64_t i = 0; i < out_plane; ++i) s += go[i];
        (*gb)[oc] += static_cast<float>(s);
      }
    }
  }

  const int bt_max = tile_images(ckk, out_plane);
  thread_local std::vector<float> dcol;
  thread_local std::vector<float> gobuf;

  for (int b0 = 0; b0 < n; b0 += bt_max) {
    const int bt = std::min(bt_max, n - b0);
    const auto ncols = static_cast<std::int64_t>(bt) * out_plane;
    if (want_dx) dcol.resize(static_cast<std::size_t>(ckk) * ncols);
    for (int g = 0; g < d.groups; ++g) {
      const float* col = cache.panels.get() +
                         panel_offset(b0, bt, g, d.groups, ckk, out_plane);
      // Gather dY_g for the tile into a [ocg, bt·oh·ow] panel (for bt == 1
      // grad_out's own rows already have that layout).
      const float* go_g;
      if (bt == 1) {
        go_g = grad_out.data() +
               (static_cast<std::int64_t>(b0) * d.out_c + g * ocg) * out_plane;
      } else {
        gobuf.resize(static_cast<std::size_t>(ocg) * ncols);
        for (int bi = 0; bi < bt; ++bi) {
          const float* gob =
              grad_out.data() +
              (static_cast<std::int64_t>(b0 + bi) * d.out_c + g * ocg) *
                  out_plane;
          for (int oc = 0; oc < ocg; ++oc)
            std::memcpy(gobuf.data() + static_cast<std::int64_t>(oc) * ncols +
                            static_cast<std::int64_t>(bi) * out_plane,
                        gob + static_cast<std::int64_t>(oc) * out_plane,
                        static_cast<std::size_t>(out_plane) * sizeof(float));
        }
        go_g = gobuf.data();
      }
      const float* w_g = w.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      float* gw_g = gw.data() + static_cast<std::int64_t>(g) * ocg * ckk;
      // gW_g += dY_g · colᵀ (one batch-wide K reduction per tile)
      gemm(false, true, ocg, ckk, static_cast<int>(ncols), 1.0f, go_g,
           static_cast<int>(ncols), col, static_cast<int>(ncols), 1.0f, gw_g,
           ckk);
      if (!want_dx) continue;
      // dcol = W_gᵀ · dY_g, then scatter each image back into dx.
      gemm(true, false, ckk, static_cast<int>(ncols), ocg, 1.0f, w_g, ckk,
           go_g, static_cast<int>(ncols), 0.0f, dcol.data(),
           static_cast<int>(ncols));
      for (int bi = 0; bi < bt; ++bi)
        col2im(dcol.data() + static_cast<std::int64_t>(bi) * out_plane, icg, h,
               wdt, d.kernel, d.stride, d.pad,
               dx.data() +
                   (static_cast<std::int64_t>(b0 + bi) * d.in_c + g * icg) *
                       in_plane,
               ncols);
    }
  }
  return dx;
}

}  // namespace fedtrans
