#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/grouped_conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/scale_shift.hpp"
#include "nn/sgd.hpp"
#include "test_util.hpp"

namespace fedtrans {
namespace {

using testing::check_gradients;

TEST(Linear, ForwardMatchesManual) {
  Linear lin(2, 3);
  lin.weight() = Tensor::from({3, 2}, {1, 0, 0, 1, 1, 1});
  lin.bias() = Tensor::from({3}, {0.5f, -0.5f, 0.0f});
  Tensor x = Tensor::from({1, 2}, {2.0f, 3.0f});
  Tensor y = lin.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 5.0f);
}

TEST(Linear, GradientCheck) {
  Rng rng(1);
  Linear lin(5, 4);
  lin.init(rng);
  check_gradients(lin, {3, 5}, rng);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(2);
  Linear lin(4, 3, /*bias=*/false);
  lin.init(rng);
  EXPECT_EQ(lin.params().size(), 1u);
  check_gradients(lin, {2, 4}, rng);
}

TEST(Linear, MacsFormula) {
  Linear lin(7, 9);
  EXPECT_EQ(lin.macs({7}), 63);
  EXPECT_EQ(lin.out_shape({7}), std::vector<int>{9});
}

TEST(Conv2d, IdentityInitPassesThrough) {
  Conv2d conv(3, 3, 3, 1);
  conv.init_identity();
  Rng rng(3);
  Tensor x({2, 3, 5, 5});
  x.randn(rng);
  Tensor y = conv.forward(x, true);
  EXPECT_LT(testing::max_abs_diff(x, y), 1e-6);
}

TEST(Conv2d, GradientCheckStride1) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1);
  conv.init(rng);
  check_gradients(conv, {2, 2, 6, 6}, rng);
}

TEST(Conv2d, GradientCheckStride2) {
  Rng rng(5);
  Conv2d conv(2, 2, 3, 2);
  conv.init(rng);
  check_gradients(conv, {2, 2, 8, 8}, rng);
}

TEST(Conv2d, GradientCheckNoPadding) {
  Rng rng(6);
  Conv2d conv(1, 2, 3, 1, /*padding=*/0);
  conv.init(rng);
  check_gradients(conv, {2, 1, 6, 6}, rng);
}

TEST(Conv2d, OutputShapeAndMacs) {
  Conv2d conv(3, 8, 3, 2);  // same padding 1
  const auto out = conv.out_shape({3, 12, 12});
  EXPECT_EQ(out, (std::vector<int>{8, 6, 6}));
  EXPECT_EQ(conv.macs({3, 12, 12}), 3LL * 8 * 9 * 6 * 6);
}

TEST(Conv2d, PatchEmbeddingShape) {
  Conv2d conv(3, 16, 4, 4, 0);  // patch embed: k=s=4, no pad
  EXPECT_EQ(conv.out_shape({3, 12, 12}), (std::vector<int>{16, 3, 3}));
}

TEST(Conv2d, CloneIsIndependentDeepCopy) {
  Rng rng(7);
  Conv2d conv(2, 2, 3);
  conv.init(rng);
  auto copy = conv.clone();
  auto* cc = dynamic_cast<Conv2d*>(copy.get());
  ASSERT_NE(cc, nullptr);
  EXPECT_LT(testing::max_abs_diff(conv.weight(), cc->weight()), 1e-9);
  cc->weight()[0] += 1.0f;
  EXPECT_NE(conv.weight()[0], cc->weight()[0]);
}

// ---- Training caches and the params-only backward ---------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct ConvShape {
  int in_c, out_c, kernel, stride, pad, groups;
};

std::unique_ptr<Layer> make_conv(const ConvShape& s, Rng& rng) {
  if (s.groups == 1) {
    auto conv = std::make_unique<Conv2d>(s.in_c, s.out_c, s.kernel, s.stride,
                                         s.pad);
    conv->init(rng);
    return conv;
  }
  auto conv = std::make_unique<GroupedConv2d>(s.in_c, s.out_c, s.kernel,
                                              s.groups, s.stride, s.pad);
  conv->init(rng);
  return conv;
}

// The model's first layer skips its input gradient; its weight and bias
// gradients must still accumulate exactly as a full backward() would.
TEST(Conv2d, ParamsOnlyBackwardAccumulatesBitwiseLikeBackward) {
  const ConvShape shapes[] = {
      {3, 5, 3, 1, -1, 1}, {4, 6, 3, 2, 0, 1}, {3, 4, 5, 2, 2, 1},
      {2, 3, 1, 1, 0, 1},  {4, 8, 3, 1, -1, 2}, {6, 6, 3, 2, -1, 6},
  };
  for (ConvBackend backend : {ConvBackend::Im2col, ConvBackend::Direct}) {
    set_conv_backend(backend);
    for (const ConvShape& s : shapes) {
      Rng rng(31);
      auto full = make_conv(s, rng);
      auto params_only = full->clone();
      Tensor x({3, s.in_c, 9, 7});
      x.randn(rng);
      Tensor g(full->forward(x, true).shape());
      g.randn(rng);
      params_only->forward(x, true);
      // Non-zero starting gradients: accumulation is what is compared.
      for (auto* l : {full.get(), params_only.get()})
        for (auto& p : l->params()) p.grad->fill(0.25f);
      full->backward(g);
      params_only->backward_params(g);
      auto pf = full->params();
      auto pp = params_only->params();
      ASSERT_EQ(pf.size(), pp.size());
      for (std::size_t i = 0; i < pf.size(); ++i)
        EXPECT_TRUE(bitwise_equal(*pf[i].grad, *pp[i].grad))
            << pf[i].name << " k=" << s.kernel << " stride=" << s.stride
            << " groups=" << s.groups;
    }
  }
  set_conv_backend(ConvBackend::Im2col);
}

// An eval forward caches nothing and drops what a training forward cached:
// a backward() after it must fail loudly instead of reading stale state.
// The conv layers' backward() also consumes its cache.
TEST(LayerCache, BackwardAfterEvalForwardFailsThroughCheck) {
  for (ConvBackend backend : {ConvBackend::Im2col, ConvBackend::Direct}) {
    set_conv_backend(backend);
    Rng rng(8);
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(make_conv({4, 4, 3, 1, -1, 1}, rng));
    layers.push_back(make_conv({4, 4, 3, 1, -1, 2}, rng));
    layers.push_back(std::make_unique<ScaleShift>(4));
    layers.push_back(std::make_unique<ReLU>());
    Tensor x({2, 4, 6, 5});
    x.randn(rng);
    for (auto& l : layers) {
      const Tensor y_train = l->forward(x, true);
      const Tensor g(y_train.shape(), 1.0f);
      EXPECT_NO_THROW(l->backward(g)) << l->name();
      // Eval forwards compute the same output, bit for bit.
      EXPECT_TRUE(bitwise_equal(l->forward(x, false), y_train)) << l->name();
      EXPECT_THROW(l->backward(g), Error) << l->name();
      l->forward(x, true);
      l->forward(x, false);
      EXPECT_THROW(l->backward(g), Error) << l->name();
    }
    for (std::size_t i = 0; i < 2; ++i) {
      const Tensor g(layers[i]->forward(x, true).shape());
      layers[i]->backward_params(g);
      EXPECT_THROW(layers[i]->backward(g), Error)
          << "conv backward must consume its cache";
    }
  }
  set_conv_backend(ConvBackend::Im2col);
}

// The unfold/fold loops split each kernel tap into zero edges and an
// in-bounds interior; both must equal a per-element bounds-tested loop bit
// for bit, including taps that fall entirely into the padding.
TEST(Im2col, UnfoldAndFoldMatchPerElementReference) {
  struct Geo {
    int c, h, w, k, stride, pad;
  };
  const Geo geos[] = {{2, 7, 9, 3, 1, 1}, {3, 8, 8, 3, 2, 1},
                      {1, 6, 5, 5, 1, 2}, {2, 5, 7, 1, 1, 2},
                      {2, 9, 6, 3, 3, 0}, {1, 4, 4, 3, 1, 3},
                      {2, 10, 7, 4, 2, 3}};
  Rng rng(12);
  for (const Geo& g : geos) {
    const int oh = (g.h + 2 * g.pad - g.k) / g.stride + 1;
    const int ow = (g.w + 2 * g.pad - g.k) / g.stride + 1;
    const auto rows = static_cast<std::int64_t>(g.c) * g.k * g.k;
    const auto plane = static_cast<std::int64_t>(oh) * ow;
    Tensor im({g.c, g.h, g.w});
    im.randn(rng);
    Tensor col({static_cast<int>(rows), static_cast<int>(plane)});
    col.randn(rng);  // every element must be overwritten
    im2col(im.data(), g.c, g.h, g.w, g.k, g.stride, g.pad, col.data());

    Tensor dcol(col.shape());
    dcol.randn(rng);
    Tensor folded = im;  // col2im accumulates
    col2im(dcol.data(), g.c, g.h, g.w, g.k, g.stride, g.pad, folded.data());

    Tensor col_ref(col.shape());
    Tensor folded_ref = im;
    for (int ch = 0; ch < g.c; ++ch)
      for (int ky = 0; ky < g.k; ++ky)
        for (int kx = 0; kx < g.k; ++kx)
          for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox) {
              const std::int64_t r = (ch * g.k + ky) * g.k + kx;
              const std::int64_t at = r * plane + oy * ow + ox;
              const int iy = oy * g.stride - g.pad + ky;
              const int ix = ox * g.stride - g.pad + kx;
              const bool in = iy >= 0 && iy < g.h && ix >= 0 && ix < g.w;
              col_ref[at] = in ? im.at(ch, iy, ix) : 0.0f;
              if (in) folded_ref.at(ch, iy, ix) += dcol[at];
            }
    EXPECT_TRUE(bitwise_equal(col, col_ref))
        << "im2col k=" << g.k << " stride=" << g.stride << " pad=" << g.pad;
    EXPECT_TRUE(bitwise_equal(folded, folded_ref))
        << "col2im k=" << g.k << " stride=" << g.stride << " pad=" << g.pad;
  }
}

TEST(ReLU, ForwardBackwardMasks) {
  ReLU relu;
  Tensor x = Tensor::from({4}, {-1, 0, 2, -3});
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g = Tensor::from({4}, {1, 1, 1, 1});
  Tensor dx = relu.backward(g);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 0.0f);  // gradient at exactly zero is zero
  EXPECT_EQ(dx[2], 1.0f);
}

// forward is max(v, 0) and backward a select on x <= 0: −0 stays −0, NaN
// stays NaN and passes its gradient, exactly as compare-and-assign did.
TEST(ReLU, SignedZeroAndNaNPassThroughUnchanged) {
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x = Tensor::from({3}, {-0.0f, nan, -2.0f});
  Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_TRUE(std::signbit(y[0]));
  EXPECT_TRUE(std::isnan(y[1]));
  EXPECT_EQ(y[2], 0.0f);
  EXPECT_FALSE(std::signbit(y[2]));
  Tensor dx = relu.backward(Tensor::from({3}, {3.0f, 4.0f, 5.0f}));
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 4.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(ScaleShift, GradientCheck4d) {
  Rng rng(8);
  ScaleShift ss(3);
  ss.scale().randn(rng, 0.5f);
  ss.shift().randn(rng, 0.5f);
  check_gradients(ss, {2, 3, 4, 4}, rng);
}

TEST(ScaleShift, GradientCheck2d) {
  Rng rng(9);
  ScaleShift ss(5);
  ss.scale().randn(rng, 0.5f);
  check_gradients(ss, {3, 5}, rng);
}

TEST(ScaleShift, IdentityByDefault) {
  ScaleShift ss(2);
  Rng rng(10);
  Tensor x({1, 2, 3, 3});
  x.randn(rng);
  Tensor y = ss.forward(x, true);
  EXPECT_LT(testing::max_abs_diff(x, y), 1e-9);
}

TEST(GlobalAvgPool, ForwardAveragesAndBackwardSpreads) {
  GlobalAvgPool gap;
  Tensor x = Tensor::from({1, 2, 1, 2}, {1, 3, 10, 30});
  Tensor y = gap.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 20.0f);
  Tensor g = Tensor::from({1, 2}, {4, 8});
  Tensor dx = gap.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1, 0, 0), 4.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Rng rng(11);
  Tensor x({2, 3, 4, 4});
  x.randn(rng);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 48}));
  Tensor dx = f.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_LT(testing::max_abs_diff(dx, x), 1e-9);
}

TEST(Loss, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({4, 10});
  std::vector<int> labels{0, 3, 7, 9};
  const double l = loss.forward(logits, labels);
  EXPECT_NEAR(l, std::log(10.0), 1e-5);
}

TEST(Loss, PerfectPredictionLowLoss) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  logits.at(0, 1) = 50.0f;
  logits.at(1, 2) = 50.0f;
  std::vector<int> labels{1, 2};
  EXPECT_LT(loss.forward(logits, labels), 1e-4);
}

TEST(Loss, BackwardIsSoftmaxMinusOneHotOverN) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 2});  // uniform => probs 0.5/0.5
  std::vector<int> labels{0};
  loss.forward(logits, labels);
  Tensor d = loss.backward();
  EXPECT_NEAR(d.at(0, 0), -0.5, 1e-6);
  EXPECT_NEAR(d.at(0, 1), 0.5, 1e-6);
}

TEST(Loss, LabelOutOfRangeThrows) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  std::vector<int> labels{3};
  EXPECT_THROW(loss.forward(logits, labels), Error);
}

TEST(Loss, CountCorrect) {
  Tensor logits = Tensor::from({2, 2}, {5, 1, 1, 5});
  std::vector<int> labels{0, 0};
  EXPECT_EQ(count_correct(logits, labels), 1);
}

TEST(Sgd, PlainStepAppliesLrAndZerosGrad) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 1.0f;
  auto ps = lin.params();
  (*ps[0].grad)[0] = 2.0f;
  Sgd opt(ps, {.lr = 0.1});
  opt.step();
  EXPECT_NEAR(lin.weight()[0], 0.8f, 1e-6);
  EXPECT_EQ((*ps[0].grad)[0], 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 0.0f;
  auto ps = lin.params();
  Sgd opt(ps, {.lr = 1.0, .momentum = 0.5});
  (*ps[0].grad)[0] = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_NEAR(lin.weight()[0], -1.0f, 1e-6);
  (*ps[0].grad)[0] = 1.0f;
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(lin.weight()[0], -2.5f, 1e-6);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 10.0f;
  auto ps = lin.params();
  Sgd opt(ps, {.lr = 0.1, .weight_decay = 1.0});
  opt.step();  // g = 0 + 1.0*10 => w -= 0.1*10
  EXPECT_NEAR(lin.weight()[0], 9.0f, 1e-5);
}

TEST(Sgd, ProxTermPullsTowardAnchor) {
  Linear lin(1, 1, false);
  lin.weight()[0] = 0.0f;
  auto ps = lin.params();
  Sgd opt(ps, {.lr = 0.1, .prox_mu = 1.0});  // anchor captured at w=0
  lin.weight()[0] = 5.0f;                    // drift away
  opt.step();  // g = mu*(5-0)=5 => w -= 0.5
  EXPECT_NEAR(lin.weight()[0], 4.5f, 1e-5);
}

}  // namespace
}  // namespace fedtrans
