// Bitwise guard on client training. A fixed set of local_train runs —
// cifar-like and femnist-like (Scale::Tiny), fp32 and fp16, on the base
// model and on its widened and deepened children — is hashed and compared
// against hashes recorded once. Kernel and layer optimizations that keep
// every float operation in the same order leave these hashes unchanged; a
// change that moves a single bit of any delta, loss or probe fails here.
//
// One golden set per GEMM tier: the micro-kernels differ in FMA grouping,
// so their results differ in the last bits. Tiers without a recorded set
// (or not available on the running CPU) skip.
//
// Re-recording (only for a change that is *meant* to move training
// numerics): run with FEDTRANS_GOLDEN_PRINT=1, which prints every case as
// a `{tier, "case", 0x...}` line (also for tiers with no golden yet), and
// copy those lines into kGoldens.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <string>

#include "fl/local_train.hpp"
#include "harness/presets.hpp"
#include "model/transform.hpp"
#include "tensor/gemm.hpp"

namespace fedtrans {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_double(std::uint64_t h, double v) {
  return fnv1a(h, &v, sizeof v);
}

struct Golden {
  GemmBackend tier;
  const char* name;  // "<preset>/<dtype>/<model>"
  std::uint64_t hash;
};

// Recorded before the conv panel reuse, the params-only stem backward and
// the vectorized elementwise loops; those changes keep every float
// operation and its order, so these must not move. The scalar and AVX-512
// tiers agree bit for bit here: every micro-kernel accumulates each output
// in the same k order with FMA.
const Golden kGoldens[] = {
    {GemmBackend::Scalar, "cifar-like/f32/base", 0x9b378a6dc860c320ULL},
    {GemmBackend::Scalar, "cifar-like/f32/widen", 0x18f22c6c33f74d99ULL},
    {GemmBackend::Scalar, "cifar-like/f32/deepen", 0xf597c64fd3ef095bULL},
    {GemmBackend::Scalar, "cifar-like/f16/base", 0x64449d8f359c1c42ULL},
    {GemmBackend::Scalar, "cifar-like/f16/widen", 0x7872f2bed0a8a27eULL},
    {GemmBackend::Scalar, "cifar-like/f16/deepen", 0x6ec86e0b66cb9e33ULL},
    {GemmBackend::Scalar, "femnist-like/f32/base", 0xd1bbc667ce83ff46ULL},
    {GemmBackend::Scalar, "femnist-like/f32/widen", 0x08a0e51f0bd53914ULL},
    {GemmBackend::Scalar, "femnist-like/f32/deepen", 0x3e45841f63185dd2ULL},
    {GemmBackend::Scalar, "femnist-like/f16/base", 0xfdcb328e73728a60ULL},
    {GemmBackend::Scalar, "femnist-like/f16/widen", 0x209f3d806d65d131ULL},
    {GemmBackend::Scalar, "femnist-like/f16/deepen", 0x46b7a36c4b9f9051ULL},
    {GemmBackend::Avx512, "cifar-like/f32/base", 0x9b378a6dc860c320ULL},
    {GemmBackend::Avx512, "cifar-like/f32/widen", 0x18f22c6c33f74d99ULL},
    {GemmBackend::Avx512, "cifar-like/f32/deepen", 0xf597c64fd3ef095bULL},
    {GemmBackend::Avx512, "cifar-like/f16/base", 0x64449d8f359c1c42ULL},
    {GemmBackend::Avx512, "cifar-like/f16/widen", 0x7872f2bed0a8a27eULL},
    {GemmBackend::Avx512, "cifar-like/f16/deepen", 0x6ec86e0b66cb9e33ULL},
    {GemmBackend::Avx512, "femnist-like/f32/base", 0xd1bbc667ce83ff46ULL},
    {GemmBackend::Avx512, "femnist-like/f32/widen", 0x08a0e51f0bd53914ULL},
    {GemmBackend::Avx512, "femnist-like/f32/deepen", 0x3e45841f63185dd2ULL},
    {GemmBackend::Avx512, "femnist-like/f16/base", 0xfdcb328e73728a60ULL},
    {GemmBackend::Avx512, "femnist-like/f16/widen", 0x209f3d806d65d131ULL},
    {GemmBackend::Avx512, "femnist-like/f16/deepen", 0x46b7a36c4b9f9051ULL},
};

// Enumerator spelling for the printed golden lines.
const char* tier_enum(GemmBackend b) {
  switch (b) {
    case GemmBackend::Scalar: return "Scalar";
    case GemmBackend::Avx2: return "Avx2";
    case GemmBackend::Avx512: return "Avx512";
    case GemmBackend::Neon: return "Neon";
  }
  return "?";
}

enum class Variant { Base, Widen, Deepen };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::Base: return "base";
    case Variant::Widen: return "widen";
    case Variant::Deepen: return "deepen";
  }
  return "?";
}

constexpr int kClients = 4;
constexpr int kSteps = 8;
constexpr int kBatch = 10;

// Hash of 4 clients' local_train on one (preset, precision, model): every
// delta tensor's bytes, the mean loss, and the post-training accuracy and
// loss probes.
std::uint64_t train_hash(const ExperimentPreset& p,
                         const FederatedDataset& data, Dtype dtype,
                         Variant variant) {
  Rng rng(p.fedtrans.seed + 17);
  Model base(p.initial_model, rng);
  Model model = base;
  if (variant == Variant::Widen) model = widen_cell(base, 0, 2.0, 1, rng);
  if (variant == Variant::Deepen) model = deepen_cell(base, 0, 1, 1, rng);

  LocalTrainConfig cfg = p.fedtrans.local;
  cfg.steps = kSteps;
  cfg.batch = kBatch;
  cfg.precision.dtype = dtype;

  std::uint64_t h = kFnvOffset;
  for (int c = 0; c < kClients; ++c) {
    Model m = model;
    Rng crng(1000 + static_cast<std::uint64_t>(c));
    const ClientData& cd = data.client(c);
    const LocalTrainResult res = local_train(m, cd, cfg, crng);
    for (const Tensor& t : res.delta)
      h = fnv1a(h, t.data(), static_cast<std::size_t>(t.numel()) * 4);
    h = fnv1a_double(h, res.avg_loss);
    h = fnv1a_double(h, evaluate_accuracy(m, cd));
    h = fnv1a_double(h, evaluate_loss(m, cd));
  }
  return h;
}

class TrainGolden : public ::testing::TestWithParam<GemmBackend> {};

TEST_P(TrainGolden, LocalTrainHashesMatchRecorded) {
  const GemmBackend tier = GetParam();
  if (!gemm_backend_available(tier))
    GTEST_SKIP() << gemm_backend_name(tier) << " not available here";
  bool recorded = false;
  for (const Golden& g : kGoldens) recorded |= g.tier == tier;
  const bool print = std::getenv("FEDTRANS_GOLDEN_PRINT") != nullptr;
  if (!recorded && !print)
    GTEST_SKIP() << "no golden hashes recorded for tier "
                 << gemm_backend_name(tier);

  struct TierGuard {
    GemmBackend prev = gemm_backend();
    ~TierGuard() { set_gemm_backend(prev); }
  } guard;
  set_gemm_backend(tier);
  for (const ExperimentPreset& p :
       {cifar_like(Scale::Tiny), femnist_like(Scale::Tiny)}) {
    const FederatedDataset data = FederatedDataset::generate(p.dataset);
    for (Dtype dtype : {Dtype::F32, Dtype::F16}) {
      for (Variant v : {Variant::Base, Variant::Widen, Variant::Deepen}) {
        const std::string name = p.name + "/" + dtype_name(dtype) + "/" +
                                 variant_name(v);
        const std::uint64_t got = train_hash(p, data, dtype, v);
        char line[160];
        std::snprintf(line, sizeof line,
                      "{GemmBackend::%s, \"%s\", 0x%016llxULL},",
                      tier_enum(tier), name.c_str(),
                      static_cast<unsigned long long>(got));
        if (print) std::printf("    %s\n", line);
        const Golden* want = nullptr;
        for (const Golden& g : kGoldens)
          if (g.tier == tier && name == g.name) want = &g;
        if (!recorded) continue;
        ASSERT_NE(want, nullptr) << "no golden for " << line;
        EXPECT_EQ(got, want->hash) << "training numerics moved: " << line;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, TrainGolden,
    ::testing::Values(GemmBackend::Scalar, GemmBackend::Avx2,
                      GemmBackend::Avx512, GemmBackend::Neon),
    [](const ::testing::TestParamInfo<GemmBackend>& info) {
      return std::string(gemm_backend_name(info.param));
    });

}  // namespace
}  // namespace fedtrans
