#include "core/solve_plan.hpp"

#include <algorithm>
#include <mutex>

#include "common/thread_pool.hpp"
#include "core/symbolic_plan.hpp"

namespace blr::core {

SolvePlan SolvePlan::build(const symbolic::SymbolicFactor& sf) {
  SolvePlan p;
  const index_t ncblk = sf.num_cblks();

  // The runs of a supernode's bloks facing one supernode: bloks ascend by
  // row and supernodes partition the rows, so each run is contiguous.
  const auto for_each_run = [&sf](index_t k, auto&& fn) {
    const std::vector<symbolic::Blok>& bloks = sf.cblk(k).bloks;
    const index_t nb = static_cast<index_t>(bloks.size());
    for (index_t b0 = 0, b1 = 0; b0 < nb; b0 = b1) {
      const index_t t = bloks[static_cast<std::size_t>(b0)].fcblk;
      while (b1 < nb && bloks[static_cast<std::size_t>(b1)].fcblk == t) ++b1;
      fn(t, b0, b1);
    }
  };
  std::uint64_t ngroups = 0;
  for (index_t k = 0; k < ncblk; ++k) {
    for_each_run(k, [&](index_t, index_t, index_t) { ++ngroups; });
    const symbolic::Cblk& c = sf.cblk(k);
    p.entries_ += static_cast<std::uint64_t>(c.width()) *
                  static_cast<std::uint64_t>(c.width() + c.height());
  }
  const std::uint64_t ntasks = 2 * static_cast<std::uint64_t>(ncblk) + ngroups;

  DepBuilder b;
  b.reserve(ntasks, 2 * static_cast<std::uint64_t>(ncblk) + 3 * ngroups);
  p.tasks_.reserve(ntasks);
  p.groups_ = static_cast<std::uint32_t>(ngroups);
  const auto declare = [&](SolveTask t) {
    p.tasks_.push_back(t);
    return b.add_task();
  };
  // RHS row-segment address space: one address per supernode, covering
  // x[fcol, lcol). A group writes row sub-ranges of its target segment, so
  // segment granularity is conservative — exactly what serializes the
  // overlapping accumulations of different descendants into the sequential
  // order (the write chain that pins bitwise determinism).
  const auto seg = [](index_t k) { return static_cast<std::uint64_t>(k); };

  // Forward, push-form: a pull-form forward task would wait on every
  // descendant facing it and put most of the sweep on the critical path;
  // one task per (k, t) run keeps sibling subtrees independent until their
  // updates meet in a shared ancestor's write chain.
  for (index_t k = 0; k < ncblk; ++k) {
    b.write(declare({SolveTaskKind::FwdDiag, k, 0, 0}), seg(k));
    for_each_run(k, [&](index_t t, index_t b0, index_t b1) {
      const std::uint32_t id = declare({SolveTaskKind::FwdGroup, k, b0, b1});
      b.read(id, seg(k));
      b.write(id, seg(t));
    });
  }
  // Backward, pull-form: every ancestor segment k reads is final once its
  // own Bwd ran, and the only writer of seg(k) is Bwd(k) itself.
  for (index_t k = ncblk; k-- > 0;) {
    const index_t nb = static_cast<index_t>(sf.cblk(k).bloks.size());
    const std::uint32_t id = declare({SolveTaskKind::Bwd, k, 0, nb});
    for_each_run(k, [&](index_t t, index_t, index_t) { b.read(id, seg(t)); });
    b.write(id, seg(k));
  }

  p.deps_ = b.infer();

  // Critical-path depth per task (the pool priority: deep tasks release the
  // longest remaining chains, so they go first), by one reverse sweep —
  // edges all point forward, so ids in reverse are a topological order.
  p.prio_.assign(p.tasks_.size(), 1);
  for (std::uint32_t t = static_cast<std::uint32_t>(p.tasks_.size());
       t-- > 0;) {
    const std::uint32_t* s = p.deps_.succ.data() + p.deps_.succ_offset[t];
    const std::uint32_t* e = p.deps_.succ.data() + p.deps_.succ_offset[t + 1];
    for (const std::uint32_t* q = s; q != e; ++q)
      p.prio_[t] = std::max(p.prio_[t], p.prio_[*q] + 1);
    p.critical_path_ = std::max<std::uint64_t>(
        p.critical_path_, static_cast<std::uint64_t>(p.prio_[t]));
  }
  return p;
}

DepDrainStats SolvePlan::execute(
    ThreadPool* pool, const std::function<bool(std::uint32_t)>& body) const {
  if (pool == nullptr) {
    // Every inferred edge points forward, so id order is a topological
    // order: the in-order drain needs no in-degree bookkeeping.
    DepDrainStats rs;
    for (std::uint32_t id = 0; id < num_tasks(); ++id) {
      ++rs.executed;
      if (!body(id)) break;
    }
    return rs;
  }
  return drain_deps(deps_, pool, body,
                    [this](std::uint32_t id) { return prio_[id]; });
}

std::shared_ptr<const SolvePlan> SymbolicPlan::solve_plan(bool* built) const {
  std::lock_guard<std::mutex> lock(*solve_plan_mu_);
  if (built != nullptr) *built = false;
  if (!solve_plan_cache_) {
    solve_plan_cache_ = std::make_shared<const SolvePlan>(SolvePlan::build(sf));
    if (built != nullptr) *built = true;
  }
  return solve_plan_cache_;
}

} // namespace blr::core
