#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace blr::core {

/// Generic read/write-set dependency inference. Tasks are declared in the
/// canonical sequential order (the exact order a sequential sweep executes
/// them) and declare which addresses they read and write; infer() turns
/// the access lists into explicit edges:
///
///   - a Read depends on the last Write of the address;
///   - a Write depends on every Read since the last Write (or on the last
///     Write when nothing read in between) — so writers to one address form
///     a chain in declaration order.
///
/// Because declaration order is the sequential execution order, the inferred
/// DAG is acyclic by construction (every edge points forward), and the
/// write-chain rule makes every address's value history identical under any
/// topological execution order — the determinism property the solve tests
/// memcmp. Explicit edge() calls add dependencies that flow through private
/// data instead of a shared address.
class DepBuilder {
public:
  /// Pre-size the internal vectors (optional; exact counts avoid regrowth).
  void reserve(std::uint64_t num_tasks, std::uint64_t num_accesses) {
    (void)num_tasks;
    accesses_.reserve(num_accesses);
  }

  /// Declare the next task; returns its id (== its canonical sequence
  /// number: ids ascend in declaration order).
  std::uint32_t add_task();

  /// Declare that `task` reads / writes `addr`. Accesses must be declared in
  /// task order (infer() throws otherwise).
  void read(std::uint32_t task, std::uint64_t addr);
  void write(std::uint32_t task, std::uint64_t addr);

  /// Explicit forward dependency `from` → `to` (from < to required).
  void edge(std::uint32_t from, std::uint32_t to);

  /// Inferred dependency structure: CSR successor lists plus in-degrees.
  struct Deps {
    std::vector<std::uint32_t> succ_offset;  ///< size ntasks + 1
    std::vector<std::uint32_t> succ;         ///< deduplicated, ascending per task
    std::vector<std::int32_t> indeg;         ///< incoming edge count per task
    std::uint64_t num_edges = 0;
  };
  [[nodiscard]] Deps infer() const;

  [[nodiscard]] std::uint32_t num_tasks() const { return ntasks_; }

private:
  struct Access {
    std::uint64_t addr;
    std::uint32_t task;
    bool is_write;
  };
  std::uint32_t ntasks_ = 0;
  std::vector<Access> accesses_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> extra_;
};

/// Result of one drain_deps() run.
struct DepDrainStats {
  std::uint64_t executed = 0;    ///< tasks whose body ran
  std::uint64_t ready_peak = 0;  ///< max tasks released but not yet started
};

/// Drain any inferred dependency structure. `body(id)` runs one task and
/// returns false to stop the drain cooperatively (its successors — and,
/// transitively, everything they gate — are never released). With a pool,
/// ready tasks are submitted with `priority(id)` and completed tasks release
/// their successors from the worker; the drain blocks on pool->wait_idle(),
/// so the pool must not be shared with another concurrent drain. Without a
/// pool, the lowest-id ready task always runs next — exactly the canonical
/// declaration (sequential) order. Used by SolvePlan (triangular solve).
DepDrainStats drain_deps(
    const DepBuilder::Deps& deps, ThreadPool* pool,
    const std::function<bool(std::uint32_t)>& body,
    const std::function<std::int64_t(std::uint32_t)>& priority);

} // namespace blr::core
