// Grouped dense updates (DESIGN.md §9): both drivers apply one
// gather–GEMM–scatter per (source supernode, facing blok) group and one
// panel TRSM per panel side, with factors bit-identical to the per-pair
// schedule they replaced. Pins
//
//   - exact gemm[ge,ge] / trsm[ge] / potrf / getrf call counts and flops,
//     against counts derived here straight from the SymbolicFactor;
//   - FNV-1a hashes of the factors for Dense / JIT / MinMem / Adaptive ×
//     LLᵗ / LU × LUAR on/off, with low-rank holes in the panels and
//     low-rank targets, for the left-looking fan-in at every thread count
//     and the one-thread barrier (DESIGN.md §12);
//   - panel-split segments of one source racing on the target locks.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "blr.hpp"

namespace {

using namespace blr;
using sparse::CscMatrix;

CscMatrix matrix_for(Factorization f) {
  return f == Factorization::Lu ? sparse::convection_diffusion_3d(10, 10, 10, 0.5)
                                : sparse::laplacian_3d(10, 10, 10);
}

SolverOptions grid_opts(Strategy s, Factorization f) {
  SolverOptions o;
  o.strategy = s;
  o.factorization = f;
  o.threads = 1;
  // Small thresholds: panels get low-rank holes and (MinMem / Adaptive)
  // low-rank update targets even on these small grids.
  o.compress_min_width = 16;
  o.compress_min_height = 8;
  o.split.split_threshold = 64;
  o.split.split_size = 32;
  return o;
}

const core::DispatchCount* row(const Solver& s, const std::string& kernel) {
  for (const core::DispatchCount& d : s.stats().dispatch)
    if (d.kernel == kernel) return &d;
  return nullptr;
}

std::uint64_t calls(const Solver& s, const std::string& kernel) {
  const core::DispatchCount* d = row(s, kernel);
  return d != nullptr ? d->calls : 0;
}

std::uint64_t flops(const Solver& s, const std::string& kernel) {
  const core::DispatchCount* d = row(s, kernel);
  return d != nullptr ? d->flops : 0;
}

void push_tile(const lr::Tile& t, std::vector<unsigned char>& out) {
  const auto push = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out.insert(out.end(), b, b + n);
  };
  const std::uint8_t head[2] = {static_cast<std::uint8_t>(t.is_lowrank()),
                                static_cast<std::uint8_t>(t.precision())};
  push(head, sizeof head);
  const index_t rank = t.rank();
  push(&rank, sizeof rank);
  if (!t.is_lowrank()) {
    push(t.dense().data(), t.dense().bytes());
  } else if (t.precision() == lr::Precision::Fp32) {
    push(t.lr().u32.data(), t.lr().u32.bytes());
    push(t.lr().v32.data(), t.lr().v32.bytes());
  } else {
    push(t.lr().u.data(), t.lr().u.bytes());
    push(t.lr().v.data(), t.lr().v.bytes());
  }
}

std::vector<unsigned char> factor_bytes(const Solver& s) {
  std::vector<unsigned char> out;
  const symbolic::SymbolicFactor& sf = s.symbolic();
  for (index_t k = 0; k < sf.num_cblks(); ++k) {
    const core::CblkData& cd = s.numeric().cblk_data(k);
    push_tile(cd.diag, out);
    for (const lr::Tile& t : cd.lpanel) push_tile(t, out);
    for (const lr::Tile& t : cd.upanel) push_tile(t, out);
    const auto* p = reinterpret_cast<const unsigned char*>(cd.ipiv.data());
    out.insert(out.end(), p, p + cd.ipiv.size() * sizeof(index_t));
  }
  return out;
}

/// Dense-strategy expectations computed from the block structure alone:
/// every pair is dense×dense into a dense target, so each group side is one
/// run — one GEMM — and each panel side one TRSM.
struct Expected {
  std::uint64_t gemm_calls = 0, gemm_flops = 0;
  std::uint64_t trsm_calls = 0, trsm_flops = 0;
  std::uint64_t diag_calls = 0, diag_flops = 0;
};

Expected expected_dense(const symbolic::SymbolicFactor& sf, bool llt) {
  Expected e;
  for (index_t k = 0; k < sf.num_cblks(); ++k) {
    const symbolic::Cblk& c = sf.cblk(k);
    const std::uint64_t w = static_cast<std::uint64_t>(c.width());
    const std::uint64_t h = static_cast<std::uint64_t>(c.height());
    e.diag_calls += 1;
    e.diag_flops += (llt ? 1 : 2) * w * w * w / 3;
    if (c.bloks.empty()) continue;
    const std::uint64_t sides = llt ? 1 : 2;
    e.trsm_calls += sides;
    e.trsm_flops += sides * h * w * w;
    for (std::size_t f = 0; f < c.bloks.size(); ++f) {
      const index_t t = c.bloks[f].fcblk;
      const std::uint64_t hf = static_cast<std::uint64_t>(c.bloks[f].height());
      // L side: rows facing t or later (LLᵗ: bloks f onwards).
      // U side (LU): rows facing strictly later cblks.
      std::uint64_t lrows = 0, urows = 0;
      for (std::size_t i = 0; i < c.bloks.size(); ++i) {
        const std::uint64_t hi = static_cast<std::uint64_t>(c.bloks[i].height());
        if (llt ? i >= f : c.bloks[i].fcblk >= t) lrows += hi;
        if (!llt && c.bloks[i].fcblk > t) urows += hi;
      }
      e.gemm_calls += 1 + (urows > 0 ? 1 : 0);
      e.gemm_flops += 2 * (lrows + urows) * hf * w;
    }
  }
  return e;
}

class GroupedCounts : public ::testing::TestWithParam<Factorization> {};

TEST_P(GroupedCounts, DenseCallsAndFlopsMatchTheSymbolicGroups) {
  const Factorization fk = GetParam();
  const bool llt = fk == Factorization::Llt;
  const CscMatrix a = matrix_for(fk);
  Solver s(grid_opts(Strategy::Dense, fk));
  s.factorize(a);
  const Expected e = expected_dense(s.symbolic(), llt);
  const std::string diag = llt ? "potrf[ge]" : "getrf[ge]";
  EXPECT_EQ(calls(s, "gemm[ge,ge]"), e.gemm_calls);
  EXPECT_EQ(flops(s, "gemm[ge,ge]"), e.gemm_flops);
  EXPECT_EQ(calls(s, "trsm[ge]"), e.trsm_calls);
  EXPECT_EQ(flops(s, "trsm[ge]"), e.trsm_flops);
  EXPECT_EQ(calls(s, diag), e.diag_calls);
  EXPECT_EQ(flops(s, diag), e.diag_flops);
  // Far fewer calls than block pairs: the grouping is real.
  std::uint64_t pairs = 0;
  for (const symbolic::Cblk& c : s.symbolic().cblks()) {
    const std::uint64_t nb = c.bloks.size();
    pairs += llt ? nb * (nb + 1) / 2 : nb * nb;
  }
  EXPECT_LT(e.gemm_calls * 2, pairs);
  // The summary reports the achieved rate of the rows carrying flops.
  std::ostringstream os;
  s.print_summary(os);
  const std::string text = os.str();
  const std::size_t at = text.find("gemm[ge,ge]");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(text.find("GF/s", at), std::string::npos);
}

TEST_P(GroupedCounts, CompressedRunsStayWithinTheGroupBound) {
  // JIT compresses panels before their updates, so groups have low-rank
  // holes; the dense rows around them still form one run per group side,
  // and targets are dense until their own elimination.
  const Factorization fk = GetParam();
  const bool llt = fk == Factorization::Llt;
  Solver s(grid_opts(Strategy::JustInTime, fk));
  s.factorize(matrix_for(fk));
  ASSERT_GT(s.stats().num_lowrank_blocks, 0);
  const Expected e = expected_dense(s.symbolic(), llt);
  EXPECT_GT(calls(s, "gemm[ge,ge]"), 0u);
  EXPECT_LE(calls(s, "gemm[ge,ge]"), e.gemm_calls);
  EXPECT_LE(calls(s, "trsm[ge]"), e.trsm_calls);
  EXPECT_GT(calls(s, "trsm[lr]"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, GroupedCounts,
                         ::testing::Values(Factorization::Llt, Factorization::Lu),
                         [](const auto& info) {
                           return info.param == Factorization::Llt ? "LLt" : "LU";
                         });

std::uint64_t fnv1a(const std::vector<unsigned char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- the factor bit contract, anchored to pinned hashes -------------------
//
// FNV-1a of factor_bytes(), captured from the sequential per-tile task DAG
// that served as the bitwise oracle until the left-looking fan-in replaced
// it (the one-thread barrier and left-looking runs hashed the same). The
// hashes hold under every backend (the backends promise the same bits;
// scripts/ci.sh runs the suite under each). The suite keeps its name: the
// pinned values are the sequential DAG's factors, which every driver must
// still reproduce.

struct GridCase {
  Strategy strategy;
  Factorization facto;
  bool accumulate;
};

// Pinned per (strategy, kind); LUAR on and off hash the same on this grid.
std::uint64_t pinned_hash(Strategy strategy, Factorization facto) {
  struct Pin {
    Strategy strategy;
    std::uint64_t llt, lu;
  };
  constexpr Pin kPinned[] = {
      {Strategy::Dense, 0x0f4067b65d0523aaull, 0x3d562a66f78c87f8ull},
      {Strategy::JustInTime, 0x14b2eb851957d1a9ull, 0xb484e4991971a2d5ull},
      {Strategy::MinimalMemory, 0x6cef4b0d79988a14ull, 0xa350174ba56b970eull},
      {Strategy::Adaptive, 0xaae88338ee1ed9adull, 0xc4fcec9bf07f9df5ull},
  };
  for (const Pin& p : kPinned)
    if (p.strategy == strategy)
      return facto == Factorization::Llt ? p.llt : p.lu;
  ADD_FAILURE() << "no pinned hash for this strategy";
  return 0;
}

class GroupedVsDag : public ::testing::TestWithParam<GridCase> {};

TEST_P(GroupedVsDag, EveryDriverIsBitIdenticalToTheSequentialDag) {
  const GridCase c = GetParam();
  const CscMatrix a = matrix_for(c.facto);
  SolverOptions base = grid_opts(c.strategy, c.facto);
  base.accumulate_updates = c.accumulate;
  const std::uint64_t pinned = pinned_hash(c.strategy, c.facto);

  struct Driver {
    core::Scheduling scheduling;
    int threads;
  };
  for (const Driver d : {Driver{core::Scheduling::RightLooking, 1},
                         Driver{core::Scheduling::LeftLooking, 1},
                         Driver{core::Scheduling::LeftLooking, 2},
                         Driver{core::Scheduling::LeftLooking, 4},
                         Driver{core::Scheduling::LeftLooking, 8}}) {
    const std::string name =
        std::string(d.scheduling == core::Scheduling::LeftLooking
                        ? "left-looking"
                        : "barrier") +
        " threads=" + std::to_string(d.threads);
    SolverOptions o = base;
    o.scheduling = d.scheduling;
    o.threads = d.threads;
    Solver s(o);
    s.factorize(a);
    EXPECT_EQ(fnv1a(factor_bytes(s)), pinned) << name;
    if (c.strategy == Strategy::Dense) continue;
    // The grid must actually reach the non-grouped paths it pins.
    std::uint64_t lr_products = 0;
    for (const core::DispatchCount& dc : s.stats().dispatch)
      if (dc.kernel.rfind("gemm[", 0) == 0 && dc.kernel != "gemm[ge,ge]")
        lr_products += dc.calls;
    EXPECT_GT(lr_products, 0u) << name << ": no low-rank hole was updated";
    if (c.strategy == Strategy::MinimalMemory) {
      EXPECT_GT(calls(s, "lr2lr[ge]"), 0u)
          << name << ": no dense pair met a low-rank target";
    }
  }
}

std::vector<GridCase> grid() {
  std::vector<GridCase> v;
  for (const Strategy st : {Strategy::Dense, Strategy::JustInTime,
                            Strategy::MinimalMemory, Strategy::Adaptive})
    for (const Factorization f : {Factorization::Llt, Factorization::Lu})
      for (const bool acc : {false, true}) v.push_back({st, f, acc});
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    StrategyKindLuar, GroupedVsDag, ::testing::ValuesIn(grid()),
    [](const auto& info) {
      const GridCase& c = info.param;
      std::string s = c.strategy == Strategy::Dense          ? "Dense"
                      : c.strategy == Strategy::JustInTime   ? "JIT"
                      : c.strategy == Strategy::MinimalMemory ? "MinMem"
                                                              : "Adaptive";
      s += c.facto == Factorization::Llt ? "LLt" : "LU";
      s += c.accumulate ? "Luar" : "Eager";
      return s;
    });

class GroupedSplitRace : public ::testing::TestWithParam<int> {};

TEST_P(GroupedSplitRace, SplitSegmentsShareTargetLocksSafely) {
  // Panel-split segments of one source run their groups concurrently and
  // contend for the same target locks; each group drains its target's
  // dependency counter exactly once, so every supernode is eliminated once
  // and the factors solve the system.
  const int threads = GetParam();
  for (const Factorization fk : {Factorization::Llt, Factorization::Lu}) {
    const CscMatrix a = matrix_for(fk);
    SolverOptions o = grid_opts(Strategy::JustInTime, fk);
    Solver seq(o);
    seq.factorize(a);

    o.threads = threads;
    o.panel_split_rows = 32;
    Solver par(o);
    par.factorize(a);
    ASSERT_TRUE(par.factorized());
    EXPECT_GT(par.stats().scheduler_tasks,
              static_cast<std::uint64_t>(par.symbolic().num_cblks()))
        << "panel splitting never engaged";
    // The grouping does not depend on the schedule: same calls per kernel.
    EXPECT_EQ(calls(par, "gemm[ge,ge]"), calls(seq, "gemm[ge,ge]"));
    EXPECT_EQ(calls(par, "trsm[ge]"), calls(seq, "trsm[ge]"));
    std::vector<real_t> b(static_cast<std::size_t>(a.rows()), 1.0);
    const auto x = par.solve(b);
    EXPECT_LT(sparse::backward_error(a, x.data(), b.data()), 1e-6)
        << (fk == Factorization::Llt ? "LLt" : "LU") << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GroupedSplitRace, ::testing::Values(2, 8));

} // namespace
