// Kernel backend layer (DESIGN.md §14): CPUID detection and env overrides,
// dispatch-table completeness across backends, exact bitwise agreement of
// the la:: entry points under Reference vs Native, and memcmp bit-identity
// of whole factorizations across strategies × compression kinds ×
// precisions × schedules — the contract that lets the engine A/B
// backends without tolerances.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "blr.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/kernels_dispatch.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/random.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

// Backend selection and ISA detection are process-global; every test that
// touches them restores the prior state so test order never matters.
class BackendStateGuard {
public:
  BackendStateGuard() : saved_(la::current_backend()) {}
  ~BackendStateGuard() { la::set_backend(saved_); }

private:
  la::Backend saved_;
};

// Saves one environment variable and restores it (set or unset) on exit,
// then drops the cached detection so later tests re-read the real state.
class EnvVarGuard {
public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~EnvVarGuard() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
    la::redetect_backend();
  }

private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

// ---- detection, names, env overrides ---------------------------------

TEST(BackendDetect, NamesAreStable) {
  EXPECT_STREQ(la::backend_name(la::Backend::Reference), "reference");
  EXPECT_STREQ(la::backend_name(la::Backend::Native), "native");
  EXPECT_STREQ(la::backend_choice_name(la::BackendChoice::Auto), "auto");
  EXPECT_STREQ(la::backend_choice_name(la::BackendChoice::Reference),
               "reference");
  EXPECT_STREQ(la::backend_choice_name(la::BackendChoice::Native), "native");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Portable), "portable");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Avx2), "avx2");
  EXPECT_STREQ(la::native_isa_name(la::NativeIsa::Avx512), "avx512");
}

TEST(BackendDetect, AutoSelectsNative) {
  // The portable packed tier is always compiled in, so Native is always
  // runnable and Auto must prefer it.
  EXPECT_EQ(la::detect_best_backend(), la::Backend::Native);
  EXPECT_TRUE(la::native_isa_compiled(la::NativeIsa::Portable));
  EXPECT_TRUE(la::native_isa_supported(la::native_isa()));
#if defined(__x86_64__) || defined(__i386__)
  // On an AVX2-capable x86 host with the SIMD tiers compiled in, detection
  // must not settle for the portable tier.
  if (__builtin_cpu_supports("avx2") &&
      la::native_isa_compiled(la::NativeIsa::Avx2) &&
      std::getenv("BLR_NATIVE_ISA") == nullptr) {
    EXPECT_GE(static_cast<int>(la::native_isa()),
              static_cast<int>(la::NativeIsa::Avx2));
  }
#endif
}

TEST(BackendDetect, EnvOverridesChoice) {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_BACKEND");

  ::setenv("BLR_BACKEND", "reference", 1);
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Native),
            la::Backend::Reference);

  ::setenv("BLR_BACKEND", "NATIVE", 1);  // case-insensitive
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Reference),
            la::Backend::Native);

  ::setenv("BLR_BACKEND", "auto", 1);
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Reference),
            la::detect_best_backend());

  ::setenv("BLR_BACKEND", "sse9", 1);
  EXPECT_THROW(la::resolve_backend(la::BackendChoice::Auto), Error);

  ::unsetenv("BLR_BACKEND");
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Reference),
            la::Backend::Reference);
  EXPECT_EQ(la::resolve_backend(la::BackendChoice::Native),
            la::Backend::Native);
}

TEST(BackendDetect, IsaClampForcesPortableFallback) {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_NATIVE_ISA");

  // Force-disable the SIMD tiers: detection must land on the portable
  // packed tier, and the clamped tiers must report unsupported.
  ::setenv("BLR_NATIVE_ISA", "portable", 1);
  la::redetect_backend();
  EXPECT_EQ(la::native_isa(), la::NativeIsa::Portable);
  EXPECT_FALSE(la::native_isa_supported(la::NativeIsa::Avx2));
  EXPECT_FALSE(la::native_isa_supported(la::NativeIsa::Avx512));
  EXPECT_EQ(la::detect_best_backend(), la::Backend::Native);

  ::setenv("BLR_NATIVE_ISA", "neon", 1);
  la::redetect_backend();
  EXPECT_THROW(la::native_isa(), Error);
}

// ---- dispatch-table completeness across backends ---------------------

TEST(BackendDispatchTable, EveryKeyResolvesIdenticallyUnderEveryBackend) {
  const auto& reg = core::KernelDispatch::instance();
  int registered = 0;
  for (int op = 0; op < static_cast<int>(core::KernelOp::kCount); ++op)
    for (int ra = 0; ra < static_cast<int>(core::Rep::kCount); ++ra)
      for (int pa = 0; pa < static_cast<int>(core::Prec::kCount); ++pa)
        for (int rb = 0; rb < static_cast<int>(core::Rep::kCount); ++rb)
          for (int pb = 0; pb < static_cast<int>(core::Prec::kCount); ++pb) {
            const bool ref = reg.has_kernel(
                la::Backend::Reference, static_cast<core::KernelOp>(op),
                static_cast<core::Rep>(ra), static_cast<core::Prec>(pa),
                static_cast<core::Rep>(rb), static_cast<core::Prec>(pb));
            const bool nat = reg.has_kernel(
                la::Backend::Native, static_cast<core::KernelOp>(op),
                static_cast<core::Rep>(ra), static_cast<core::Prec>(pa),
                static_cast<core::Rep>(rb), static_cast<core::Prec>(pb));
            EXPECT_EQ(ref, nat)
                << core::kernel_op_name(static_cast<core::KernelOp>(op))
                << " a=(" << ra << "," << pa << ") b=(" << rb << "," << pb
                << ")";
            registered += ref ? 1 : 0;
          }
  // The built-in kernel set must have landed under both backends.
  EXPECT_GT(registered, 0);
  EXPECT_TRUE(reg.has_kernel(la::Backend::Native, core::KernelOp::Gemm,
                             core::Rep::Dense, core::Prec::Fp64,
                             core::Rep::Dense, core::Prec::Fp64));
  EXPECT_TRUE(reg.has_kernel(la::Backend::Reference, core::KernelOp::Compress,
                             core::Rep::Dense, core::Prec::Fp64,
                             core::Rep::None, core::Prec::Fp64));
}

// ---- exact bitwise agreement of the la:: entry points ----------------

template <typename T>
void expect_same_bits(const la::Matrix<T>& x, const la::Matrix<T>& y,
                      const std::string& what) {
  ASSERT_EQ(x.rows(), y.rows()) << what;
  ASSERT_EQ(x.cols(), y.cols()) << what;
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        sizeof(T) * static_cast<std::size_t>(x.size())),
            0)
      << what;
}

// gemm must agree bit-for-bit between the Reference nests and the Native
// packed engine for every transpose combination, including sizes that
// cross the packing block boundaries (kMC = 128 rows, kKC = 256 depth) and
// ragged edge tiles — the canonical-accumulation-order contract.
template <typename T>
void gemm_bit_identity_for_type() {
  BackendStateGuard state;
  Prng rng(97);
  const struct {
    index_t m, n, k;
  } sizes[] = {{8, 4, 8},       // below the packed threshold: same nests
               {64, 48, 96},    // packed, single MC/KC block
               {137, 43, 300},  // ragged microtile edges + k past kKC
               {200, 40, 300}}; // m past kMC: multi-block packed walk
  for (const auto& sz : sizes) {
    for (const la::Trans ta : {la::Trans::No, la::Trans::Yes}) {
      for (const la::Trans tb : {la::Trans::No, la::Trans::Yes}) {
        la::Matrix<T> a(ta == la::Trans::No ? sz.m : sz.k,
                        ta == la::Trans::No ? sz.k : sz.m);
        la::Matrix<T> b(tb == la::Trans::No ? sz.k : sz.n,
                        tb == la::Trans::No ? sz.n : sz.k);
        la::Matrix<T> c0(sz.m, sz.n);
        random_normal(a.view(), rng);
        random_normal(b.view(), rng);
        random_normal(c0.view(), rng);

        la::Matrix<T> cr = c0;
        la::set_backend(la::Backend::Reference);
        la::gemm(ta, tb, T(-1), a.cview(), b.cview(), T(1), cr.view());

        la::Matrix<T> cn = c0;
        la::set_backend(la::Backend::Native);
        la::gemm(ta, tb, T(-1), a.cview(), b.cview(), T(1), cn.view());

        expect_same_bits(cr, cn,
                         "gemm m=" + std::to_string(sz.m) +
                             " n=" + std::to_string(sz.n) +
                             " k=" + std::to_string(sz.k) + " ta=" +
                             (ta == la::Trans::Yes ? "T" : "N") + " tb=" +
                             (tb == la::Trans::Yes ? "T" : "N"));
      }
    }
  }
}

TEST(BackendBitwiseKernels, GemmDouble) { gemm_bit_identity_for_type<double>(); }
TEST(BackendBitwiseKernels, GemmFloat) { gemm_bit_identity_for_type<float>(); }

template <typename T>
void trsm_syrk_bit_identity_for_type() {
  BackendStateGuard state;
  Prng rng(131);
  const index_t n = 96, m = 80;

  // Well-conditioned triangular factor: dominant diagonal.
  la::Matrix<T> tri(n, n);
  random_normal(tri.view(), rng);
  for (index_t i = 0; i < n; ++i) tri(i, i) += T(2 * n);

  for (const la::Side side : {la::Side::Left, la::Side::Right}) {
    for (const la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
      for (const la::Trans trans : {la::Trans::No, la::Trans::Yes}) {
        for (const la::Diag diag : {la::Diag::NonUnit, la::Diag::Unit}) {
          la::Matrix<T> rhs(side == la::Side::Left ? n : m,
                            side == la::Side::Left ? m : n);
          random_normal(rhs.view(), rng);

          la::Matrix<T> br = rhs;
          la::set_backend(la::Backend::Reference);
          la::trsm(side, uplo, trans, diag, T(1), tri.cview(), br.view());

          la::Matrix<T> bn = rhs;
          la::set_backend(la::Backend::Native);
          la::trsm(side, uplo, trans, diag, T(1), tri.cview(), bn.view());

          expect_same_bits(br, bn, "trsm");
        }
      }
    }
  }

  la::Matrix<T> a(n, m);
  random_normal(a.view(), rng);
  for (const la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper}) {
    for (const la::Trans trans : {la::Trans::No, la::Trans::Yes}) {
      const index_t cn = trans == la::Trans::No ? n : m;
      la::Matrix<T> c0(cn, cn);
      random_normal(c0.view(), rng);

      la::Matrix<T> cr = c0;
      la::set_backend(la::Backend::Reference);
      la::syrk(uplo, trans, T(-1), a.cview(), T(1), cr.view());

      la::Matrix<T> cs = c0;
      la::set_backend(la::Backend::Native);
      la::syrk(uplo, trans, T(-1), a.cview(), T(1), cs.view());

      expect_same_bits(cr, cs, "syrk");
    }
  }
}

TEST(BackendBitwiseKernels, TrsmSyrkDouble) {
  trsm_syrk_bit_identity_for_type<double>();
}
TEST(BackendBitwiseKernels, TrsmSyrkFloat) {
  trsm_syrk_bit_identity_for_type<float>();
}

// ---- factor bit-comparison helpers -----------------------------------

template <typename T>
void expect_matrix_bits(const la::Matrix<T>& x, const la::Matrix<T>& y,
                        const char* what, index_t k) {
  ASSERT_EQ(x.rows(), y.rows()) << what << " rows, cblk " << k;
  ASSERT_EQ(x.cols(), y.cols()) << what << " cols, cblk " << k;
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        sizeof(T) * static_cast<std::size_t>(x.size())),
            0)
      << what << " bits differ in cblk " << k;
}

void expect_tile_bits(const lr::Tile& x, const lr::Tile& y, const char* what,
                      index_t k) {
  ASSERT_EQ(x.is_lowrank(), y.is_lowrank()) << what << " repr, cblk " << k;
  ASSERT_EQ(x.rank(), y.rank()) << what << " rank, cblk " << k;
  if (!x.is_lowrank()) {
    expect_matrix_bits(x.dense(), y.dense(), what, k);
    return;
  }
  ASSERT_EQ(x.precision(), y.precision()) << what << " precision, cblk " << k;
  if (x.rank() == 0) return;
  if (x.precision() == lr::Precision::Fp32) {
    expect_matrix_bits(x.lr().u32, y.lr().u32, what, k);
    expect_matrix_bits(x.lr().v32, y.lr().v32, what, k);
  } else {
    expect_matrix_bits(x.lr().u, y.lr().u, what, k);
    expect_matrix_bits(x.lr().v, y.lr().v, what, k);
  }
}

void expect_factors_bit_identical(const core::NumericFactor& x,
                                  const core::NumericFactor& y) {
  const index_t ncblk = x.symbolic().num_cblks();
  ASSERT_EQ(ncblk, y.symbolic().num_cblks());
  for (index_t k = 0; k < ncblk; ++k) {
    const core::CblkData& cx = x.cblk_data(k);
    const core::CblkData& cy = y.cblk_data(k);
    expect_tile_bits(cx.diag, cy.diag, "diag", k);
    ASSERT_EQ(cx.lpanel.size(), cy.lpanel.size());
    ASSERT_EQ(cx.upanel.size(), cy.upanel.size());
    ASSERT_EQ(cx.ipiv, cy.ipiv) << "pivots, cblk " << k;
    for (std::size_t i = 0; i < cx.lpanel.size(); ++i)
      expect_tile_bits(cx.lpanel[i], cy.lpanel[i], "lpanel", k);
    for (std::size_t i = 0; i < cx.upanel.size(); ++i)
      expect_tile_bits(cx.upanel[i], cy.upanel[i], "upanel", k);
  }
}

// ---- whole-factorization bit-identity Reference vs Native ------------

struct BackendCase {
  Strategy strategy;
  lr::CompressionKind kind;
  TilePrecision precision;
  core::Scheduling scheduling;
};

SolverOptions backend_opts(const BackendCase& c, la::BackendChoice backend) {
  SolverOptions o;
  o.strategy = c.strategy;
  o.kind = c.kind;
  o.precision = c.precision;
  o.scheduling = c.scheduling;
  o.backend = backend;
  o.threads = 1;
  // Small thresholds so the tiny test grids still produce low-rank blocks.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

class BackendBitIdentity : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BackendBitIdentity, ReferenceVsNative) {
  // This test pins the backend per solver; a BLR_BACKEND override from the
  // CI A/B stage would defeat that, so drop it for the test's duration.
  BackendStateGuard state;
  EnvVarGuard env("BLR_BACKEND");
  ::unsetenv("BLR_BACKEND");

  const BackendCase c = GetParam();
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  Solver ref(backend_opts(c, la::BackendChoice::Reference));
  ref.factorize(a);
  EXPECT_EQ(ref.stats().backend, "reference");
  EXPECT_TRUE(ref.stats().backend_isa.empty());

  Solver nat(backend_opts(c, la::BackendChoice::Native));
  nat.factorize(a);
  EXPECT_EQ(nat.stats().backend, "native");
  EXPECT_EQ(nat.stats().backend_isa, la::native_isa_name(la::native_isa()));

  // Same sequential schedule, same canonical accumulation order: the
  // factors must agree bit for bit across backends, not just to rounding.
  expect_factors_bit_identical(ref.numeric(), nat.numeric());

  // Each run's kernel counters are attributed to the backend it ran under.
  ASSERT_FALSE(ref.stats().dispatch.empty());
  ASSERT_FALSE(nat.stats().dispatch.empty());
  for (const auto& d : ref.stats().dispatch)
    EXPECT_EQ(d.backend, "reference") << d.kernel;
  for (const auto& d : nat.stats().dispatch)
    EXPECT_EQ(d.backend, "native") << d.kernel;

  // And the logical kernel-call table matches row for row.
  ASSERT_EQ(ref.stats().dispatch.size(), nat.stats().dispatch.size());
  for (std::size_t i = 0; i < ref.stats().dispatch.size(); ++i) {
    EXPECT_EQ(ref.stats().dispatch[i].kernel, nat.stats().dispatch[i].kernel);
    EXPECT_EQ(ref.stats().dispatch[i].calls, nat.stats().dispatch[i].calls)
        << ref.stats().dispatch[i].kernel;
  }

  // Solves on bit-identical factors are bit-identical too.
  std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
  const auto xref = ref.solve(b);
  const auto xnat = nat.solve(b);
  EXPECT_EQ(std::memcmp(xref.data(), xnat.data(),
                        sizeof(real_t) * xref.size()),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyKindPrecisionSchedulingGrid, BackendBitIdentity,
    ::testing::Values(
        BackendCase{Strategy::Dense, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, core::Scheduling::RightLooking},
        BackendCase{Strategy::Dense, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, core::Scheduling::LeftLooking},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, core::Scheduling::RightLooking},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, core::Scheduling::LeftLooking},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Svd,
                    TilePrecision::Fp64, core::Scheduling::RightLooking},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                    TilePrecision::MixedTiles, core::Scheduling::RightLooking},
        BackendCase{Strategy::JustInTime, lr::CompressionKind::Svd,
                    TilePrecision::MixedTiles, core::Scheduling::LeftLooking},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, core::Scheduling::RightLooking},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Svd,
                    TilePrecision::Fp64, core::Scheduling::LeftLooking},
        BackendCase{Strategy::MinimalMemory, lr::CompressionKind::Rrqr,
                    TilePrecision::MixedTiles, core::Scheduling::LeftLooking},
        BackendCase{Strategy::Adaptive, lr::CompressionKind::Rrqr,
                    TilePrecision::Fp64, core::Scheduling::RightLooking},
        BackendCase{Strategy::Adaptive, lr::CompressionKind::Svd,
                    TilePrecision::Fp64, core::Scheduling::LeftLooking},
        BackendCase{Strategy::Adaptive, lr::CompressionKind::Rrqr,
                    TilePrecision::MixedTiles, core::Scheduling::LeftLooking},
        BackendCase{Strategy::Adaptive, lr::CompressionKind::Svd,
                    TilePrecision::MixedTiles, core::Scheduling::RightLooking}),
    [](const auto& info) {
      std::string s = info.param.strategy == Strategy::Dense ? "Dense"
                      : info.param.strategy == Strategy::JustInTime ? "JIT"
                      : info.param.strategy == Strategy::MinimalMemory
                          ? "MinMem"
                          : "Adaptive";
      s += info.param.kind == lr::CompressionKind::Svd ? "Svd" : "Rrqr";
      s += info.param.precision == TilePrecision::MixedTiles ? "Mixed" : "Fp64";
      s += info.param.scheduling == core::Scheduling::LeftLooking
               ? "LeftLooking"
               : "Barrier";
      return s;
    });

// The portable Native tier must also match Reference bit for bit — the
// deployment fallback when CPUID rules out every SIMD tier.
TEST(BackendBitIdentity, PortableTierMatchesReference) {
  BackendStateGuard state;
  EnvVarGuard env("BLR_BACKEND");
  ::unsetenv("BLR_BACKEND");
  EnvVarGuard guard("BLR_NATIVE_ISA");
  ::setenv("BLR_NATIVE_ISA", "portable", 1);
  la::redetect_backend();
  ASSERT_EQ(la::native_isa(), la::NativeIsa::Portable);

  const BackendCase c{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                      TilePrecision::Fp64, core::Scheduling::RightLooking};
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  Solver ref(backend_opts(c, la::BackendChoice::Reference));
  ref.factorize(a);

  Solver nat(backend_opts(c, la::BackendChoice::Native));
  nat.factorize(a);
  EXPECT_EQ(nat.stats().backend_isa, "portable");

  expect_factors_bit_identical(ref.numeric(), nat.numeric());
}

// BLR_BACKEND overrides SolverOptions::backend for a whole factorization —
// the same binary A/Bs backends from the environment, no recompilation.
TEST(BackendEnvSolver, EnvOverridesSolverOptions) {
  BackendStateGuard state;
  EnvVarGuard guard("BLR_BACKEND");
  ::setenv("BLR_BACKEND", "reference", 1);

  const BackendCase c{Strategy::JustInTime, lr::CompressionKind::Rrqr,
                      TilePrecision::Fp64, core::Scheduling::RightLooking};
  const CscMatrix a = sparse::convection_diffusion_3d(7, 7, 7, 0.5);

  Solver s(backend_opts(c, la::BackendChoice::Native));
  s.factorize(a);
  EXPECT_EQ(s.stats().backend, "reference");
  for (const auto& d : s.stats().dispatch)
    EXPECT_EQ(d.backend, "reference") << d.kernel;
}

} // namespace
