#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "tensor/tensor.hpp"

namespace fedtrans {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.dim(1), 3);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromRejectsMismatchedCount) {
  EXPECT_THROW(Tensor::from({2, 2}, {1.0f, 2.0f, 3.0f}), Error);
}

TEST(Tensor, MultiDimIndexingIsRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  t.at(0, 1) = 3.0f;
  EXPECT_EQ(t[1], 3.0f);
}

TEST(Tensor, IndexOutOfBoundsThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, 3), Error);
  EXPECT_THROW(t.at(0), Error);  // wrong rank
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, InPlaceArithmetic) {
  Tensor a = Tensor::from({3}, {1, 2, 3});
  Tensor b = Tensor::from({3}, {10, 20, 30});
  a.add_(b);
  EXPECT_EQ(a[2], 33.0f);
  a.sub_(b);
  EXPECT_EQ(a[1], 2.0f);
  a.mul_(2.0f);
  EXPECT_EQ(a[0], 2.0f);
  a.axpy_(0.5f, b);
  EXPECT_EQ(a[0], 7.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a.add_(b), Error);
  EXPECT_THROW(a.axpy_(1.0f, b), Error);
  EXPECT_THROW(squared_distance(a, b), Error);
}

TEST(Tensor, Reductions) {
  Tensor a = Tensor::from({4}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(a.sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.abs_max(), 4.0);
  EXPECT_NEAR(a.l2_norm(), std::sqrt(30.0), 1e-6);
}

TEST(Tensor, SaveLoadRoundTrip) {
  Rng rng(5);
  Tensor t({3, 4, 2});
  t.randn(rng);
  std::stringstream ss;
  t.save(ss);
  Tensor u = Tensor::load(ss);
  ASSERT_TRUE(u.same_shape(t));
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], u[i]);
}

TEST(Tensor, LoadRejectsGarbage) {
  std::stringstream ss;
  ss << "not a tensor";
  EXPECT_THROW(Tensor::load(ss), Error);
}

// A header whose dims claim more elements than the stream holds is
// rejected before the tensor is allocated: the 12-byte header below claims
// {2^20, 2^14} fp32 elements (64 GiB), which would otherwise be allocated
// and zero-filled before the payload read failed.
TEST(Tensor, LoadRejectsOversizedHeaderBeforeAllocating) {
  std::stringstream ss;
  const std::int32_t hdr = 2;  // 2 dims, fp32
  const std::int32_t dims[2] = {1 << 20, 1 << 14};
  ss.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
  ss.write(reinterpret_cast<const char*>(dims), sizeof dims);
  EXPECT_THROW(Tensor::load(ss), Error);

  // Dims whose product overflows 64 bits are caught by the same guard.
  std::stringstream big;
  const std::int32_t hdr4 = 4;
  const std::int32_t dims4[4] = {1 << 30, 1 << 30, 1 << 30, 1 << 30};
  big.write(reinterpret_cast<const char*>(&hdr4), sizeof hdr4);
  big.write(reinterpret_cast<const char*>(dims4), sizeof dims4);
  EXPECT_THROW(Tensor::load(big), Error);
}

TEST(Tensor, LoadRejectsNegativeDimension) {
  std::stringstream ss;
  const std::int32_t hdr = 2;
  const std::int32_t dims[2] = {-1, 4};
  ss.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
  ss.write(reinterpret_cast<const char*>(dims), sizeof dims);
  const float payload[4] = {1.f, 2.f, 3.f, 4.f};
  ss.write(reinterpret_cast<const char*>(payload), sizeof payload);
  EXPECT_THROW(Tensor::load(ss), Error);
}

// Reference GEMM for validation.
void naive_gemm(bool ta, bool tb, int m, int n, int k, const float* a, int lda,
                const float* b, int ldb, float* c, int ldc) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        s += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = static_cast<float>(s);
    }
}

class GemmTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTransposeTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  const int m = 5, n = 7, k = 4;
  Rng rng(9);
  Tensor a({ta ? k : m, ta ? m : k});
  Tensor b({tb ? n : k, tb ? k : n});
  a.randn(rng);
  b.randn(rng);
  Tensor c({m, n}), ref({m, n});
  gemm(ta, tb, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1), 0.0f,
       c.data(), n);
  naive_gemm(ta, tb, m, n, k, a.data(), a.dim(1), b.data(), b.dim(1),
             ref.data(), n);
  for (std::int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-4) << "ta=" << ta << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTransposeTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Tensor, GemmBetaAccumulates) {
  Tensor a = Tensor::from({1, 1}, {2.0f});
  Tensor b = Tensor::from({1, 1}, {3.0f});
  Tensor c = Tensor::from({1, 1}, {10.0f});
  gemm(false, false, 1, 1, 1, 1.0f, a.data(), 1, b.data(), 1, 1.0f, c.data(),
       1);
  EXPECT_EQ(c[0], 16.0f);  // 10*1 + 2*3
}

TEST(Tensor, MatmulShapeChecks) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
  Tensor ok({3, 4});
  EXPECT_NO_THROW(matmul(a, ok));
}

TEST(Tensor, MatmulIdentity) {
  Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  Tensor eye = Tensor::from({2, 2}, {1, 0, 0, 1});
  Tensor c = matmul(a, eye);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c[i], a[i]);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(123);
  Tensor t({10000});
  t.randn(rng, 2.0f);
  double m = t.sum() / static_cast<double>(t.numel());
  EXPECT_NEAR(m, 0.0, 0.1);
  EXPECT_NEAR(t.l2_norm() / std::sqrt(static_cast<double>(t.numel())), 2.0,
              0.1);
}

}  // namespace
}  // namespace fedtrans
