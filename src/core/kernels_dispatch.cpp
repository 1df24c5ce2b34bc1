#include "core/kernels_dispatch.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/kernels_isa.hpp"

namespace blr::core {

const char* kernel_op_name(KernelOp op) {
  switch (op) {
    case KernelOp::Getrf: return "getrf";
    case KernelOp::Potrf: return "potrf";
    case KernelOp::Trsm: return "trsm";
    case KernelOp::Gemm: return "gemm";
    case KernelOp::Lr2Lr: return "lr2lr";
    case KernelOp::Lr2Ge: return "lr2ge";
    case KernelOp::Compress: return "compress";
    case KernelOp::SolveTrsm: return "solve_trsm";
    case KernelOp::SolveGemm: return "solve_gemm";
    case KernelOp::kCount: break;
  }
  return "?";
}

namespace {

std::uint64_t ctx_bytes(const KernelCtx& ctx) {
  std::uint64_t b = 0;
  if (ctx.stiles != nullptr) {
    // Solve task: its tiles as stored plus the RHS rows it reads or writes
    // (the owning segment and every blok's rows), not the whole RHS block.
    const SolveTiles& st = *ctx.stiles;
    std::uint64_t rows = static_cast<std::uint64_t>(st.width);
    for (std::size_t i = 0; i < st.count; ++i) {
      b += st.tiles[i].storage_bytes();
      rows += static_cast<std::uint64_t>(st.bloks[i].height());
    }
    return b + rows * static_cast<std::uint64_t>(ctx.view.cols) * sizeof(real_t);
  }
  if (ctx.a != nullptr) b += ctx.a->storage_bytes();
  if (ctx.b != nullptr) b += ctx.b->storage_bytes();
  if (ctx.c != nullptr) b += ctx.c->storage_bytes();
  if (ctx.segs != nullptr) {
    // Grouped gemm: the destination is the target segments.
    for (std::size_t i = 0; i < ctx.nsegs; ++i) {
      b += static_cast<std::uint64_t>(ctx.segs[i].rows) *
           static_cast<std::uint64_t>(ctx.segs[i].cols) * sizeof(real_t);
    }
  } else if (ctx.view.data != nullptr) {
    b += static_cast<std::uint64_t>(ctx.view.rows) *
         static_cast<std::uint64_t>(ctx.view.cols) * sizeof(real_t);
  }
  for (const la::DConstView* v : {&ctx.in, &ctx.ga, &ctx.gb}) {
    if (v->data != nullptr) {
      b += static_cast<std::uint64_t>(v->rows) *
           static_cast<std::uint64_t>(v->cols) * sizeof(real_t);
    }
  }
  return b;
}

/// Flops of one call, modeled from the operand shapes: the dense
/// factorizations, panel solves and the dense gemm. Low-rank products and
/// extend-adds have rank-dependent inner structure and record 0.
std::uint64_t ctx_flops(KernelOp op, const KernelCtx& ctx) {
  const auto u = [](index_t x) { return static_cast<std::uint64_t>(x); };
  switch (op) {
    case KernelOp::Potrf:
    case KernelOp::Getrf: {
      const std::uint64_t n = u(ctx.c->rows());
      return (op == KernelOp::Potrf ? 1 : 2) * n * n * n / 3;
    }
    case KernelOp::Trsm: {
      // Right-side solve of m rows against a w×w triangle: m·w² flops; a
      // low-rank tile solves its w×r factor V from the left: r·w².
      const std::uint64_t w = u(ctx.diag->rows());
      if (ctx.view.data != nullptr) return u(ctx.view.rows) * w * w;
      if (!ctx.c->is_lowrank()) return u(ctx.c->rows()) * w * w;
      return u(ctx.c->rank()) * w * w;
    }
    case KernelOp::Gemm:
      if (ctx.view.data != nullptr || ctx.segs != nullptr)
        return 2 * u(ctx.ga.rows) * u(ctx.gb.rows) * u(ctx.ga.cols);
      if (!ctx.a->is_lowrank() && !ctx.b->is_lowrank())
        return 2 * u(ctx.a->rows()) * u(ctx.b->rows()) * u(ctx.a->cols());
      return 0;
    default:
      return 0;
  }
}

// ---- built-in kernels ----------------------------------------------------

void k_getrf(KernelCtx& ctx) {
  if (ctx.pivot_cutoff > 0) {
    la::getrf_static(ctx.c->dense().view(), *ctx.piv, ctx.pivot_cutoff,
                     ctx.replaced);
    ctx.info = 0;
  } else {
    ctx.info = la::getrf(ctx.c->dense().view(), *ctx.piv);
  }
}

void k_potrf(KernelCtx& ctx) { ctx.info = la::potrf(ctx.c->dense().view()); }

void k_trsm_dense(KernelCtx& ctx) {
  const la::DConstView diag = ctx.diag->cview();
  // One tile, or a packed image of several tiles' rows (grouped panel solve).
  const la::DView d =
      ctx.view.data != nullptr ? ctx.view : ctx.c->dense().view();
  if (!ctx.upper) {
    if (ctx.llt) {
      la::trsm(la::Side::Right, la::Uplo::Lower, la::Trans::Yes,
               la::Diag::NonUnit, real_t(1), diag, d);
    } else {
      la::trsm(la::Side::Right, la::Uplo::Upper, la::Trans::No,
               la::Diag::NonUnit, real_t(1), diag, d);
    }
    return;
  }
  // U-side (LU mirror): local pivoting permutes the supernode's rows = the
  // width axis of the stored transpose, i.e. column swaps here.
  for (std::size_t j = 0; j < ctx.piv->size(); ++j) {
    const index_t p = (*ctx.piv)[j];
    if (p != static_cast<index_t>(j)) {
      for (index_t r = 0; r < d.rows; ++r)
        std::swap(d(r, static_cast<index_t>(j)), d(r, p));
    }
  }
  la::trsm(la::Side::Right, la::Uplo::Lower, la::Trans::Yes, la::Diag::Unit,
           real_t(1), diag, d);
}

void k_trsm_lowrank(KernelCtx& ctx) {
  const la::DConstView diag = ctx.diag->cview();
  la::DMatrix& v = ctx.c->lr().v;
  if (!ctx.upper) {
    if (ctx.llt) {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), diag, v.view());
    } else {
      la::trsm(la::Side::Left, la::Uplo::Upper, la::Trans::Yes,
               la::Diag::NonUnit, real_t(1), diag, v.view());
    }
    return;
  }
  // U-side: V rows carry the width axis — swap V rows, then unit-lower solve.
  for (std::size_t j = 0; j < ctx.piv->size(); ++j) {
    const index_t p = (*ctx.piv)[j];
    if (p != static_cast<index_t>(j)) {
      for (index_t r = 0; r < v.cols(); ++r)
        std::swap(v(static_cast<index_t>(j), r), v(p, r));
    }
  }
  la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
           real_t(1), diag, v.view());
}

/// Copy the next m rows of the concatenated target segments into `buf`
/// (gather) or back out of it (scatter), from segment cursor (seg, off).
/// The cursor is taken by value: the caller advances it after the scatter.
void walk_segments(const la::DView* segs, std::size_t seg, index_t off,
                   index_t m, la::DView buf, bool gather) {
  for (index_t done = 0; done < m;) {
    const la::DView& sg = segs[seg];
    const index_t take = std::min(m - done, sg.rows - off);
    const la::DView piece = sg.sub(off, 0, take, sg.cols);
    const la::DView slot = buf.sub(done, 0, take, sg.cols);
    if (gather) la::copy<real_t>(piece, slot);
    else la::copy<real_t>(slot, piece);
    done += take;
    off += take;
    if (off == sg.rows) {
      ++seg;
      off = 0;
    }
  }
}

void k_gemm_dense(KernelCtx& ctx) {
  if (ctx.view.data == nullptr && ctx.segs == nullptr) {
    ctx.out = lr::ab_t_product(*ctx.a, *ctx.b, ctx.kind, ctx.tolerance,
                               ctx.need_ortho, ctx.out_cat);
    return;
  }
  // Fused: subtract ga·gbᵗ from the target, one row chunk at a time.
  const index_t n = ctx.gb.rows;
  const index_t chunk = std::min(dispatch::kFusedGemmRows, ctx.ga.rows);
  std::unique_ptr<real_t[]> wbuf;
  TrackedAlloc wtrack;
  if (ctx.segs != nullptr) {
    const std::size_t count =
        static_cast<std::size_t>(chunk) * static_cast<std::size_t>(n);
    wtrack = TrackedAlloc(MemCategory::Workspace, count * sizeof(real_t));
    wbuf.reset(new real_t[count]);
  }
  std::size_t seg = 0;
  index_t off = 0;
  for (index_t r = 0; r < ctx.ga.rows; r += chunk) {
    const index_t m = std::min(chunk, ctx.ga.rows - r);
    const la::DConstView a = ctx.ga.sub(r, 0, m, ctx.ga.cols);
    if (ctx.segs == nullptr) {
      la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a, ctx.gb, real_t(1),
               ctx.view.sub(r, 0, m, n));
      continue;
    }
    // Grouped: the gemm accumulates into the gathered target values, so
    // each element sees the per-pair call's exact operation sequence.
    const la::DView w(wbuf.get(), m, n, m);
    walk_segments(ctx.segs, seg, off, m, w, /*gather=*/true);
    la::gemm(la::Trans::No, la::Trans::Yes, real_t(-1), a, ctx.gb, real_t(1),
             w);
    walk_segments(ctx.segs, seg, off, m, w, /*gather=*/false);
    for (off += m; seg < ctx.nsegs && off >= ctx.segs[seg].rows;)
      off -= ctx.segs[seg++].rows;
  }
}

void k_gemm_lr(KernelCtx& ctx) {
  ctx.out = lr::ab_t_product(*ctx.a, *ctx.b, ctx.kind, ctx.tolerance,
                             ctx.need_ortho, ctx.out_cat);
}

void k_lr2lr(KernelCtx& ctx) {
  lr::lr2lr_add(*ctx.c, *ctx.a, ctx.roff, ctx.coff, ctx.kind, ctx.tolerance,
                ctx.transpose);
}

void k_lr2ge(KernelCtx& ctx) {
  if (ctx.c != nullptr) {
    lr::add_contribution_dense(ctx.c->dense(), *ctx.a, ctx.roff, ctx.coff,
                               ctx.transpose);
  } else {
    lr::apply_to_dense(*ctx.a, ctx.view, ctx.transpose);
  }
}

void k_compress(KernelCtx& ctx) {
  if (ctx.warm_hint >= 0) {
    auto wr = lr::compress_warm(ctx.kind, ctx.in, ctx.tolerance, ctx.max_rank,
                                ctx.warm_hint);
    ctx.out_lr = std::move(wr.lr);
    ctx.warm_grew = wr.grew;
  } else {
    ctx.out_lr = lr::compress(ctx.kind, ctx.in, ctx.tolerance, ctx.max_rank);
  }
}

// ---- triangular-solve kernels (DESIGN.md §16) ----------------------------
//
// One dispatch per solve task: the kernel walks the task's tiles itself, in
// ascending blok order. `ctx.view` is the whole (permuted) RHS block and
// `ctx.stiles` names the tiles and the owning supernode's segment.
// `ctx.transpose` carries the sweep direction (false = forward).
//
// Every apply keeps la::gemm's canonical per-element order — ascending k,
// alpha folded into the B term, accumulated straight into the target — so
// the streaming loops below are bit-identical to the packed gemm they
// replace for narrow blocks, and a task's result equals the per-blok
// dispatches it subsumes.

constexpr index_t kNarrowCols = la::detail::MicroTile<real_t>::NR;

/// out += op(a) · (alpha · in). Blocks narrower than the packed micro-tile
/// stream through the operand once instead of copying it into a pack
/// buffer and padding the columns.
void acc_product(bool trans_a, real_t alpha, la::DConstView a,
                 la::DConstView in, la::DView out) {
  if (in.cols >= kNarrowCols) {
    la::gemm(trans_a ? la::Trans::Yes : la::Trans::No, la::Trans::No, alpha,
             a, in, real_t(1), out);
    return;
  }
  for (index_t j = 0; j < in.cols; ++j) {
    const real_t* xj = in.col(j);
    real_t* yj = out.col(j);
    if (!trans_a) {
      for (index_t k = 0; k < a.cols; ++k)
        la::axpy(a.rows, alpha * xj[k], a.col(k), yj);
      continue;
    }
    // Aᵗ·x: four independent ascending-k dot chains at a time.
    index_t i = 0;
    for (; i + 4 <= a.cols; i += 4) {
      const real_t *a0 = a.col(i), *a1 = a.col(i + 1), *a2 = a.col(i + 2),
                   *a3 = a.col(i + 3);
      real_t s0 = yj[i], s1 = yj[i + 1], s2 = yj[i + 2], s3 = yj[i + 3];
      for (index_t k = 0; k < a.rows; ++k) {
        const real_t b = alpha * xj[k];
        s0 += a0[k] * b;
        s1 += a1[k] * b;
        s2 += a2[k] * b;
        s3 += a3[k] * b;
      }
      yj[i] = s0;
      yj[i + 1] = s1;
      yj[i + 2] = s2;
      yj[i + 3] = s3;
    }
    for (; i < a.cols; ++i) {
      const real_t* ai = a.col(i);
      real_t s = yj[i];
      for (index_t k = 0; k < a.rows; ++k) s += ai[k] * (alpha * xj[k]);
      yj[i] = s;
    }
  }
}

/// out -= blk · in (forward) or blkᵗ · in (backward) for one panel tile.
/// Low-rank tiles apply u·(vᵗ·in) / v·(uᵗ·in) through a per-thread
/// rank × nrhs scratch; fp32 tiles read their widen-cache copies.
void apply_solve_tile(SolveTiles& st, std::size_t i, la::DConstView in,
                      la::DView out, bool backward) {
  const lr::Tile& t = st.tiles[i];
  if (t.rank() == 0) return;
  if (!t.is_lowrank()) {
    acc_product(backward, real_t(-1), t.dense().cview(), in, out);
    return;
  }
  la::DConstView u = t.lr().u.cview(), v = t.lr().v.cview();
  if (t.precision() == lr::Precision::Fp32) {
    u = st.wu[i].cview();
    v = st.wv[i].cview();
    ++st.widened;
  }
  if (backward) std::swap(u, v);
  thread_local std::vector<real_t> scratch;
  scratch.assign(static_cast<std::size_t>(u.cols) *
                     static_cast<std::size_t>(in.cols),
                 real_t(0));
  la::DView tmp(scratch.data(), u.cols, in.cols, u.cols);
  acc_product(/*trans_a=*/true, real_t(1), v, in, tmp);
  acc_product(/*trans_a=*/false, real_t(-1), u, la::DConstView(tmp), out);
}

la::DView solve_segment(const KernelCtx& ctx) {
  return ctx.view.sub(ctx.stiles->fcol, 0, ctx.stiles->width, ctx.view.cols);
}

/// FwdGroup: seg(t) -= L_run · seg(k), every tile into its own rows.
void k_solve_gemm(KernelCtx& ctx) {
  SolveTiles& st = *ctx.stiles;
  const la::DConstView xk(solve_segment(ctx));
  for (std::size_t i = 0; i < st.count; ++i) {
    const symbolic::Blok& b = st.bloks[i];
    apply_solve_tile(st, i, xk,
                     ctx.view.sub(b.frow, 0, b.height(), ctx.view.cols),
                     /*backward=*/false);
  }
}

/// FwdDiag (no tiles) and Bwd: the backward task first pulls every facing
/// segment through its tile, then solves the diagonal block.
void k_solve_trsm(KernelCtx& ctx) {
  SolveTiles& st = *ctx.stiles;
  const la::DView xk = solve_segment(ctx);
  for (std::size_t i = 0; i < st.count; ++i) {
    const symbolic::Blok& b = st.bloks[i];
    apply_solve_tile(st, i, ctx.view.sub(b.frow, 0, b.height(), ctx.view.cols),
                     xk, /*backward=*/true);
  }
  const la::DConstView diag = ctx.diag->cview();
  if (!ctx.transpose) {
    // Forward: local pivot swaps (LU only), then the unit/non-unit lower
    // solve of L.
    if (!ctx.llt) {
      for (std::size_t j = 0; j < ctx.piv->size(); ++j) {
        const index_t p = (*ctx.piv)[j];
        if (p != static_cast<index_t>(j)) {
          for (index_t r = 0; r < xk.cols; ++r)
            std::swap(xk(static_cast<index_t>(j), r), xk(p, r));
        }
      }
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No, la::Diag::Unit,
               real_t(1), diag, xk);
    } else {
      la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::No,
               la::Diag::NonUnit, real_t(1), diag, xk);
    }
    return;
  }
  // Backward: Lᵗ for Cholesky, U for LU.
  if (ctx.llt) {
    la::trsm(la::Side::Left, la::Uplo::Lower, la::Trans::Yes, la::Diag::NonUnit,
             real_t(1), diag, xk);
  } else {
    la::trsm(la::Side::Left, la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit,
             real_t(1), diag, xk);
  }
}

// ---- fp32 promotion wrappers (DESIGN.md §10) -----------------------------
//
// Fp32 is an at-rest format only: these wrappers widen the stored factors to
// fp64, run the exact same kernels as the fp64 keys, and round in-out
// targets back down. Operand tiles may be read concurrently by other update
// tasks, so their promotion always goes through Workspace-tracked scratch
// copies; in-out targets are exclusively owned (panel solve) or held under
// their supernode's lock (extend-add), so those convert in place.

void k_trsm_lr32(KernelCtx& ctx) {
  ctx.c->promote_lowrank();
  k_trsm_lowrank(ctx);
  ctx.c->demote_lowrank();
}

void k_gemm_promote(KernelCtx& ctx) {
  lr::Tile sa, sb;
  const lr::Tile* a = ctx.a;
  const lr::Tile* b = ctx.b;
  if (a->precision() == lr::Precision::Fp32) {
    sa = lr::promote_copy(*a);
    a = &sa;
  }
  if (b->precision() == lr::Precision::Fp32) {
    sb = lr::promote_copy(*b);
    b = &sb;
  }
  ctx.out = lr::ab_t_product(*a, *b, ctx.kind, ctx.tolerance, ctx.need_ortho,
                             ctx.out_cat);
}

void k_lr2lr_c32(KernelCtx& ctx) {
  ctx.c->promote_lowrank();
  k_lr2lr(ctx);
  // Demotion is sticky: the recompressed result goes back to fp32 unless the
  // extend-add decided to fall back to dense storage.
  if (ctx.c->is_lowrank()) ctx.c->demote_lowrank();
}

} // namespace

KernelDispatch& KernelDispatch::instance() {
  static KernelDispatch d;
  return d;
}

KernelDispatch::KernelDispatch() {
  const Prec f64 = Prec::Fp64;
  const Prec f32 = Prec::Fp32;
  // Working-precision (fp64) kernels — the original 13.
  register_kernel(KernelOp::Getrf, Rep::Dense, f64, Rep::None, f64,
                  "getrf[ge]", Kernel::BlockFactorization, k_getrf);
  register_kernel(KernelOp::Potrf, Rep::Dense, f64, Rep::None, f64,
                  "potrf[ge]", Kernel::BlockFactorization, k_potrf);
  register_kernel(KernelOp::Trsm, Rep::Dense, f64, Rep::None, f64, "trsm[ge]",
                  Kernel::PanelSolve, k_trsm_dense);
  register_kernel(KernelOp::Trsm, Rep::LowRank, f64, Rep::None, f64,
                  "trsm[lr]", Kernel::PanelSolve, k_trsm_lowrank);
  register_kernel(KernelOp::Gemm, Rep::Dense, f64, Rep::Dense, f64,
                  "gemm[ge,ge]", Kernel::DenseUpdate, k_gemm_dense);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f64, Rep::Dense, f64,
                  "gemm[lr,ge]", Kernel::LrProduct, k_gemm_lr);
  register_kernel(KernelOp::Gemm, Rep::Dense, f64, Rep::LowRank, f64,
                  "gemm[ge,lr]", Kernel::LrProduct, k_gemm_lr);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f64, Rep::LowRank, f64,
                  "gemm[lr,lr]", Kernel::LrProduct, k_gemm_lr);
  register_kernel(KernelOp::Lr2Lr, Rep::Dense, f64, Rep::None, f64,
                  "lr2lr[ge]", Kernel::LrAddition, k_lr2lr);
  register_kernel(KernelOp::Lr2Lr, Rep::LowRank, f64, Rep::None, f64,
                  "lr2lr[lr]", Kernel::LrAddition, k_lr2lr);
  register_kernel(KernelOp::Lr2Ge, Rep::Dense, f64, Rep::None, f64,
                  "lr2ge[ge]", Kernel::DenseUpdate, k_lr2ge);
  register_kernel(KernelOp::Lr2Ge, Rep::LowRank, f64, Rep::None, f64,
                  "lr2ge[lr]", Kernel::DenseUpdate, k_lr2ge);
  register_kernel(KernelOp::Compress, Rep::Dense, f64, Rep::None, f64,
                  "compress[ge]", Kernel::Compression, k_compress);
  // Triangular-solve kernels (DESIGN.md §16). All charge the Kernel::Solve
  // stats row — the row the monolithic sweep used to time as one block — so
  // Table 2 totals keep their meaning. One kernel walks every group; the
  // key only separates the counter rows by the group's widest tile: all
  // dense, any low-rank, any fp32 at rest (read through the widen cache).
  register_kernel(KernelOp::SolveTrsm, Rep::Dense, f64, Rep::None, f64,
                  "solve_trsm[ge]", Kernel::Solve, k_solve_trsm);
  register_kernel(KernelOp::SolveGemm, Rep::Dense, f64, Rep::None, f64,
                  "solve_gemm[ge]", Kernel::Solve, k_solve_gemm);
  register_kernel(KernelOp::SolveGemm, Rep::LowRank, f64, Rep::None, f64,
                  "solve_gemm[lr]", Kernel::Solve, k_solve_gemm);
  register_kernel(KernelOp::SolveGemm, Rep::LowRank, f32, Rep::None, f64,
                  "solve_gemm[lr32]", Kernel::Solve, k_solve_gemm);
  // Mixed-precision promotion wrappers. Dense tiles are never fp32, so only
  // low-rank operand slots get Fp32 keys; the None slot of trsm/lr2lr
  // carries the target tile's precision instead.
  register_kernel(KernelOp::Trsm, Rep::LowRank, f32, Rep::None, f64,
                  "trsm[lr32]", Kernel::PanelSolve, k_trsm_lr32);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f32, Rep::Dense, f64,
                  "gemm[lr32,ge]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::Dense, f64, Rep::LowRank, f32,
                  "gemm[ge,lr32]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f32, Rep::LowRank, f64,
                  "gemm[lr32,lr]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f64, Rep::LowRank, f32,
                  "gemm[lr,lr32]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Gemm, Rep::LowRank, f32, Rep::LowRank, f32,
                  "gemm[lr32,lr32]", Kernel::LrProduct, k_gemm_promote);
  register_kernel(KernelOp::Lr2Lr, Rep::Dense, f64, Rep::None, f32,
                  "lr2lr[ge,c32]", Kernel::LrAddition, k_lr2lr_c32);
  register_kernel(KernelOp::Lr2Lr, Rep::LowRank, f64, Rep::None, f32,
                  "lr2lr[lr,c32]", Kernel::LrAddition, k_lr2lr_c32);
}

void KernelDispatch::register_kernel(KernelOp op, Rep a, Prec pa, Rep b,
                                     Prec pb, const char* name, Kernel timer,
                                     KernelFn fn) {
  // Backend-agnostic kernel: the same function serves every backend (its
  // la:: calls dispatch per-backend one layer down), but each backend keeps
  // its own counter row so A/B runs report separately.
  for (int be = 0; be < kBackends; ++be) {
    register_kernel_for(static_cast<la::Backend>(be), op, a, pa, b, pb, name,
                        timer, fn);
  }
}

void KernelDispatch::register_kernel_for(la::Backend backend, KernelOp op,
                                         Rep a, Prec pa, Rep b, Prec pb,
                                         const char* name, Kernel timer,
                                         KernelFn fn) {
  Entry& e = at(backend, op, a, pa, b, pb);
  if (e.fn == nullptr) order_.push_back(&e);
  e.name = name;
  e.backend = backend;
  e.timer = timer;
  e.fn = fn;
}

bool KernelDispatch::has_kernel(la::Backend backend, KernelOp op, Rep a,
                                Prec pa, Rep b, Prec pb) const {
  return at(backend, op, a, pa, b, pb).fn != nullptr;
}

void KernelDispatch::run(KernelOp op, Rep a, Prec pa, Rep b, Prec pb,
                         KernelCtx& ctx) {
  Entry& e = at(la::current_backend(), op, a, pa, b, pb);
  if (e.fn == nullptr) {
    throw Error(std::string("no kernel registered for ") + kernel_op_name(op));
  }
  e.calls.fetch_add(1, std::memory_order_relaxed);
  e.bytes.fetch_add(ctx_bytes(ctx), std::memory_order_relaxed);
  e.flops.fetch_add(ctx_flops(op, ctx), std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  e.fn(ctx);
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  e.nanos.fetch_add(ns, std::memory_order_relaxed);
  KernelStats::instance().add(e.timer, ns);
}

std::vector<DispatchCount> KernelDispatch::snapshot() const {
  std::vector<DispatchCount> out;
  out.reserve(order_.size());
  for (const Entry* e : order_) {
    const std::uint64_t calls = e->calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    DispatchCount d;
    d.kernel = e->name;
    d.backend = la::backend_name(e->backend);
    d.calls = calls;
    d.bytes = e->bytes.load(std::memory_order_relaxed);
    d.flops = e->flops.load(std::memory_order_relaxed);
    d.seconds =
        static_cast<double>(e->nanos.load(std::memory_order_relaxed)) * 1e-9;
    out.push_back(std::move(d));
  }
  return out;
}

void KernelDispatch::reset_counters() {
  for (auto& backends : table_) {
    for (auto& ops : backends) {
      for (auto& reps_a : ops) {
        for (auto& precs_a : reps_a) {
          for (auto& reps_b : precs_a) {
            for (auto& e : reps_b) {
              e.calls.store(0, std::memory_order_relaxed);
              e.bytes.store(0, std::memory_order_relaxed);
              e.flops.store(0, std::memory_order_relaxed);
              e.nanos.store(0, std::memory_order_relaxed);
            }
          }
        }
      }
    }
  }
}

namespace dispatch {

index_t factor_diag(lr::Tile& diag, std::vector<index_t>& piv, bool llt,
                    real_t pivot_cutoff, index_t& replaced) {
  KernelCtx ctx;
  ctx.c = &diag;
  ctx.piv = &piv;
  ctx.pivot_cutoff = pivot_cutoff;
  KernelDispatch::instance().run(llt ? KernelOp::Potrf : KernelOp::Getrf,
                                 Rep::Dense, Prec::Fp64, Rep::None,
                                 Prec::Fp64, ctx);
  replaced = ctx.replaced;
  return ctx.info;
}

void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 lr::Tile& blk, bool llt, bool upper) {
  KernelCtx ctx;
  ctx.c = &blk;
  ctx.diag = &diag.dense();
  ctx.piv = const_cast<std::vector<index_t>*>(&piv);
  ctx.llt = llt;
  ctx.upper = upper;
  KernelDispatch::instance().run(KernelOp::Trsm, rep_of(blk), prec_of(blk),
                                 Rep::None, Prec::Fp64, ctx);
}

void panel_solve(const lr::Tile& diag, const std::vector<index_t>& piv,
                 la::DView rows, bool llt, bool upper) {
  KernelCtx ctx;
  ctx.view = rows;
  ctx.diag = &diag.dense();
  ctx.piv = const_cast<std::vector<index_t>*>(&piv);
  ctx.llt = llt;
  ctx.upper = upper;
  KernelDispatch::instance().run(KernelOp::Trsm, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
}

lr::Tile product(const lr::Tile& a, const lr::Tile& b, lr::CompressionKind kind,
                 real_t tol, bool need_ortho) {
  KernelCtx ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.need_ortho = need_ortho;
  ctx.out_cat = MemCategory::Workspace;
  KernelDispatch::instance().run(KernelOp::Gemm, rep_of(a), prec_of(a),
                                 rep_of(b), prec_of(b), ctx);
  return std::move(ctx.out);
}

void gemm_into(la::DView target, la::DConstView a, la::DConstView b) {
  KernelCtx ctx;
  ctx.ga = a;
  ctx.gb = b;
  ctx.view = target;
  KernelDispatch::instance().run(KernelOp::Gemm, Rep::Dense, Prec::Fp64,
                                 Rep::Dense, Prec::Fp64, ctx);
}

void gemm_into_segments(const la::DView* segs, std::size_t n, la::DConstView a,
                        la::DConstView b) {
  KernelCtx ctx;
  ctx.ga = a;
  ctx.gb = b;
  ctx.segs = segs;
  ctx.nsegs = n;
  KernelDispatch::instance().run(KernelOp::Gemm, Rep::Dense, Prec::Fp64,
                                 Rep::Dense, Prec::Fp64, ctx);
}

void apply_contribution(la::DView target, const lr::Tile& p, bool transpose) {
  KernelCtx ctx;
  ctx.a = &p;
  ctx.view = target;
  ctx.transpose = transpose;
  KernelDispatch::instance().run(KernelOp::Lr2Ge, rep_of(p), prec_of(p),
                                 Rep::None, Prec::Fp64, ctx);
}

void extend_add(lr::Tile& c, const lr::Tile& p, index_t roff, index_t coff,
                lr::CompressionKind kind, real_t tol, bool transpose) {
  if (c.state() == lr::TileState::Factored) {
    throw Error("extend-add into a tile that is already Factored");
  }
  KernelCtx ctx;
  ctx.c = &c;
  ctx.a = &p;
  ctx.roff = roff;
  ctx.coff = coff;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.transpose = transpose;
  // The None slot's precision carries the *target* tile's precision, so
  // extend-adds into fp32 tiles route to the promote/demote wrapper and get
  // their own counter row.
  KernelDispatch::instance().run(c.is_lowrank() ? KernelOp::Lr2Lr
                                                : KernelOp::Lr2Ge,
                                 rep_of(p), prec_of(p), Rep::None, prec_of(c),
                                 ctx);
}

void solve_diag(const lr::Tile& diag, const std::vector<index_t>& piv,
                SolveTiles& st, la::DView x, bool llt, bool backward) {
  KernelCtx ctx;
  ctx.diag = &diag.dense();
  ctx.piv = const_cast<std::vector<index_t>*>(&piv);
  ctx.stiles = &st;
  ctx.view = x;
  ctx.llt = llt;
  ctx.transpose = backward;
  KernelDispatch::instance().run(KernelOp::SolveTrsm, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
}

void solve_group(SolveTiles& st, la::DView x) {
  Rep rep = Rep::Dense;
  Prec prec = Prec::Fp64;
  for (std::size_t i = 0; i < st.count; ++i) {
    if (st.tiles[i].is_lowrank()) rep = Rep::LowRank;
    if (prec_of(st.tiles[i]) == Prec::Fp32) prec = Prec::Fp32;
  }
  KernelCtx ctx;
  ctx.stiles = &st;
  ctx.view = x;
  KernelDispatch::instance().run(KernelOp::SolveGemm, rep, prec, Rep::None,
                                 Prec::Fp64, ctx);
}

std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank) {
  KernelCtx ctx;
  ctx.in = a;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.max_rank = max_rank;
  KernelDispatch::instance().run(KernelOp::Compress, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
  return std::move(ctx.out_lr);
}

std::optional<lr::LrMatrix> compress(lr::CompressionKind kind, la::DConstView a,
                                     real_t tol, index_t max_rank,
                                     index_t rank_guess, bool* grew) {
  KernelCtx ctx;
  ctx.in = a;
  ctx.kind = kind;
  ctx.tolerance = tol;
  ctx.max_rank = max_rank;
  ctx.warm_hint = rank_guess;
  KernelDispatch::instance().run(KernelOp::Compress, Rep::Dense, Prec::Fp64,
                                 Rep::None, Prec::Fp64, ctx);
  if (grew != nullptr) *grew = ctx.warm_grew;
  return std::move(ctx.out_lr);
}

} // namespace dispatch

} // namespace blr::core
