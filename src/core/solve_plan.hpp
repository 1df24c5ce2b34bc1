#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/dep_builder.hpp"
#include "symbolic/symbolic.hpp"

namespace blr {
class ThreadPool;
}

namespace blr::core {

/// The tasks of the two-sweep triangular solve (DESIGN.md §16). Forward is
/// push-form at group granularity: one diagonal solve per supernode, then
/// one update per run of its bloks facing the same supernode. Backward is
/// pull-form at supernode granularity: one task reads every segment its
/// bloks face, subtracts their contributions in ascending blok order and
/// finishes with the diagonal solve.
enum class SolveTaskKind : std::uint8_t {
  FwdDiag,   ///< pivots + L (or L of LLᵗ) diagonal solve of seg(k)
  FwdGroup,  ///< seg(t) -= L_run · seg(k), the run of k's bloks facing t
  Bwd,       ///< seg(k) -= Σ blokᵗ · seg(fcblk), then the Lᵗ/U diagonal solve
};

/// One node of the solve DAG: supernode `k` and the half-open range
/// [b0, b1) of its bloks the task walks (empty for FwdDiag, every blok for
/// Bwd).
struct SolveTask {
  SolveTaskKind kind = SolveTaskKind::FwdDiag;
  index_t k = -1;
  index_t b0 = 0, b1 = 0;
};

/// The reusable triangular-solve schedule derived from one frozen symbolic
/// structure (DESIGN.md §16): every task of the forward and backward sweep
/// with read/write sets over the RHS row segments (one address per
/// supernode), dependencies inferred by the canonical-order DepBuilder.
/// Task ids are declared in the order the sequential sweep runs them, so
/// the write chains make any topological execution — the pool drain or the
/// in-order one — produce bits identical to the sequential sweep. Purely
/// symbolic: built once per SymbolicPlan and shared by every numeric pass
/// and session snapshot over that pattern.
class SolvePlan {
public:
  static SolvePlan build(const symbolic::SymbolicFactor& sf);

  [[nodiscard]] std::uint32_t num_tasks() const {
    return static_cast<std::uint32_t>(tasks_.size());
  }
  /// FwdGroup tasks: the (supernode, facing supernode) pairs; num_tasks()
  /// is 2·ncblk + num_groups().
  [[nodiscard]] std::uint32_t num_groups() const { return groups_; }
  [[nodiscard]] const SolveTask& task(std::uint32_t id) const {
    return tasks_[id];
  }
  /// Whether a solve of `nrhs` columns is large enough to pay for the pool
  /// hand-off (waking the workers, waiting for the last task): at least
  /// kMinPooledWork entry-columns — dense-equivalent factor entries read
  /// per column, Σ width · (width + panel height), times nrhs — which is
  /// about 2.5 ms of in-order drain on a 4-vCPU avx512 host. Below that, a
  /// host whose cores are busy elsewhere lets the hand-off cost more than
  /// the drain gains (measured by bench_refactorize's in-run ratio gate).
  /// Smaller solves drain in order.
  [[nodiscard]] bool pays_pool(index_t nrhs) const {
    return entries_ * static_cast<std::uint64_t>(nrhs) >= kMinPooledWork;
  }
  static constexpr std::uint64_t kMinPooledWork = std::uint64_t{1} << 20;
  /// Longest dependency chain, in tasks (the depth bound on parallelism).
  [[nodiscard]] std::uint64_t critical_path() const { return critical_path_; }

  /// Drain the solve DAG: in task-id order (the sequential sweep) when
  /// `pool` is null, or released to the pool as in-degrees reach zero,
  /// deepest critical path first. `body(id)` runs one task and returns
  /// false to stop the drain cooperatively.
  [[nodiscard]] DepDrainStats execute(
      ThreadPool* pool, const std::function<bool(std::uint32_t)>& body) const;

private:
  std::vector<SolveTask> tasks_;
  std::uint32_t groups_ = 0;
  std::uint64_t entries_ = 0;  ///< dense-equivalent entries per column
  DepBuilder::Deps deps_;
  std::vector<std::int64_t> prio_;  ///< critical-path depth per task
  std::uint64_t critical_path_ = 0;
};

} // namespace blr::core
