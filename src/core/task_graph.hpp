#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "symbolic/symbolic.hpp"

namespace blr::core {

/// The tile operations of one dataflow factorization (DESIGN.md §12). Every
/// task addresses the tiles it touches through the (supernode, block)
/// addresses below; the dependency structure is *inferred* from those
/// read/write sets, never hand-wired.
enum class DagTaskKind : std::uint8_t {
  Assemble,  ///< gather one supernode's initial values into its tiles
  Factor,    ///< diagonal-block factorization (getrf/potrf) of one supernode
  Compress,  ///< elimination-time policy hook (LUAR flush + JIT compression) on one panel tile
  Trsm,      ///< panel solve of one off-diagonal tile against the factored diagonal
  Product,   ///< contribution product P = A·Bᵗ of one (row blok, col blok) pair
  Apply,     ///< extend-add / LUAR append of one formed contribution into its target tile
};

const char* dag_task_kind_name(DagTaskKind k);

/// One node of the task DAG. The meaning of the index fields depends on the
/// kind: `k` is always the owning supernode (the *source* supernode for
/// Product/Apply); `bi` is the panel blok for Compress/Trsm and the row blok
/// for Product/Apply; `bj` is the col blok for Product/Apply; `upper` selects
/// the U panel (LU only) for Compress/Trsm. `slot` links a Product to its
/// Apply: both carry the ordinal of their update, indexing the runtime slot
/// the product result is handed through.
struct DagTask {
  DagTaskKind kind = DagTaskKind::Assemble;
  index_t k = -1;
  index_t bi = -1;
  index_t bj = -1;
  bool upper = false;
  std::uint32_t slot = 0;
};

/// Generic read/write-set dependency inference. Tasks are declared in the
/// canonical sequential order (the exact order the barrier driver executes
/// operations) and declare which addresses they read and write; infer() turns
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
/// topological execution order — the determinism property the `dag` tests
/// memcmp. Explicit edge() calls add dependencies that flow through private
/// data instead of a shared address (e.g. Product → Apply).
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
/// declaration (sequential) order. Shared by TaskGraph (factorization) and
/// SolvePlan (triangular solve).
DepDrainStats drain_deps(
    const DepBuilder::Deps& deps, ThreadPool* pool,
    const std::function<bool(std::uint32_t)>& body,
    const std::function<std::int64_t(std::uint32_t)>& priority);

/// Runtime-checked buffer hand-off between DAG tasks: one monotonically
/// increasing epoch per tile address, mirroring the Tile state machine
/// (Unassembled → Assembled → [Compressed] → Factored) at the scheduling
/// layer. Each task asserts the epoch its inputs must have reached
/// (expect()) and publishes its own completion (advance(), a CAS so a
/// double-run or out-of-order run of a writer is caught, not absorbed).
/// A violation means the inferred dependencies failed to order two tasks —
/// the contract the `dag` tests pin — and throws blr::Error.
class EpochGate {
public:
  // Epoch values. The diagonal address skips Eliminating (Factor advances it
  // Assembled → Factored); panel addresses pass through all four.
  static constexpr std::uint8_t kUnassembled = 0;
  static constexpr std::uint8_t kAssembled = 1;   ///< updates may land
  static constexpr std::uint8_t kEliminating = 2; ///< compress stage done
  static constexpr std::uint8_t kFactored = 3;    ///< immutable from here on

  EpochGate() = default;
  explicit EpochGate(std::uint64_t num_addrs);

  /// Throws unless the address has reached exactly `want` (acquire).
  void expect(std::uint64_t addr, std::uint8_t want) const;
  /// CAS `from` → `to` (release); throws when the address was not at `from`.
  void advance(std::uint64_t addr, std::uint8_t from, std::uint8_t to);

  [[nodiscard]] std::uint8_t load(std::uint64_t addr) const {
    return ep_[addr].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t size() const { return n_; }

private:
  std::unique_ptr<std::atomic<std::uint8_t>[]> ep_;
  std::uint64_t n_ = 0;
};

/// Row-blok bounds of the update group (k, f) of source cblk `c`
/// (DESIGN.md §9): every block pair of k whose target lies in cblk
/// fcblk(f). The L side is the pairs (i, f) for i in [l_begin, nb) — every
/// row blok facing fcblk(f) or a later cblk (LLᵗ: i ≥ f). The U side (LU
/// only; u_begin == nb for LLᵗ) is the transposed pairs (f, i) for i in
/// [u_begin, nb), every row blok facing a strictly later cblk. Over all f
/// the groups partition the pairs of k, and their order — f ascending, L
/// side then U side, i ascending — is the canonical update order.
struct GroupBounds {
  index_t l_begin = 0;
  index_t u_begin = 0;
};
GroupBounds update_group_bounds(const symbolic::Cblk& c, index_t f, bool llt);

/// The dependency-driven factorization schedule (DESIGN.md §12): every tile
/// operation of the supernodal BLR factorization as a DagTask, with edges
/// inferred from read/write sets over (supernode, block) tile addresses.
/// Task ids are canonical sequence numbers — the exact order the barrier
/// driver executes the same operations — so the sequential executor (run the
/// lowest-id ready task) reproduces the barrier result bit for bit, and the
/// per-address write chains make any parallel execution produce the same
/// bits as well.
class TaskGraph {
public:
  /// Build the DAG for one symbolic structure. The graph is purely symbolic:
  /// it can be built (and unit-tested) without any numeric state.
  static TaskGraph build(const symbolic::SymbolicFactor& sf, bool llt);

  [[nodiscard]] std::uint32_t num_tasks() const {
    return static_cast<std::uint32_t>(tasks_.size());
  }
  [[nodiscard]] const DagTask& task(std::uint32_t id) const {
    return tasks_[id];
  }
  [[nodiscard]] std::uint64_t num_edges() const { return deps_.num_edges; }
  [[nodiscard]] std::int32_t indegree(std::uint32_t id) const {
    return deps_.indeg[id];
  }
  /// Successor ids of `id` (begin/end pointers into the CSR array).
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*>
  successors(std::uint32_t id) const {
    return {deps_.succ.data() + deps_.succ_offset[id],
            deps_.succ.data() + deps_.succ_offset[id + 1]};
  }
  /// Longest dependency chain, in tasks (the depth bound on parallelism).
  [[nodiscard]] std::uint64_t critical_path() const { return critical_path_; }
  /// Product/Apply pairs (the size of the product hand-off slot table).
  [[nodiscard]] std::uint32_t num_updates() const { return nupdates_; }

  // ---- tile addresses -------------------------------------------------
  [[nodiscard]] std::uint64_t num_addrs() const { return naddrs_; }
  [[nodiscard]] std::uint64_t diag_addr(index_t k) const {
    return addr_base_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t panel_addr(index_t k, bool upper,
                                         index_t blok) const {
    const std::uint64_t nb = addr_base_[static_cast<std::size_t>(k) + 1] -
                             addr_base_[static_cast<std::size_t>(k)] - 1;
    return addr_base_[static_cast<std::size_t>(k)] + 1 +
           (upper ? nb / 2 : 0) + static_cast<std::uint64_t>(blok);
  }

  // ---- execution ------------------------------------------------------

  struct RunStats {
    std::uint64_t executed = 0;    ///< tasks whose body ran
    std::uint64_t ready_peak = 0;  ///< max tasks released but not yet started
  };

  /// Execute the graph. `body(id)` runs one task and returns false to stop
  /// the run cooperatively (its successors — and, transitively, everything
  /// they gate — are never released; tasks already released may still run).
  /// With a pool, ready tasks are submitted with `priority(id)` and
  /// completed tasks release their successors from the worker; without one,
  /// the lowest-id ready task always runs next, which is exactly the
  /// canonical (barrier) sequential order.
  RunStats execute(ThreadPool* pool,
                   const std::function<bool(std::uint32_t)>& body,
                   const std::function<std::int64_t(std::uint32_t)>& priority) const;

  /// The factorization flavor this graph was built for. A cached skeleton
  /// (SymbolicPlan reuse across re-factorizations) is only valid while the
  /// effective factorization matches — LU doubles the panel address space.
  [[nodiscard]] bool llt() const { return llt_; }

private:
  std::vector<DagTask> tasks_;
  DepBuilder::Deps deps_;
  std::vector<std::uint64_t> addr_base_;  ///< per-cblk address base, +1 sentinel
  std::uint64_t naddrs_ = 0;
  std::uint32_t nupdates_ = 0;
  std::uint64_t critical_path_ = 0;
  bool llt_ = false;
};

} // namespace blr::core
