#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/memory_tracker.hpp"
#include "linalg/matrix.hpp"

namespace blr::lr {

/// Recycler for dense fp64 buffers between numeric passes over the same
/// symbolic plan (DESIGN.md §15). A re-factorization retires one full set of
/// factor blocks and allocates another of *identical* shapes; routing the
/// retired storage through this pool turns the steady-state allocation
/// traffic of the factorization-server loop into reshape-in-place reuse.
///
/// Held buffers are charged to MemCategory::Workspace so a governed
/// re-factorization still accounts for them; if charging a donated buffer
/// would breach the installed memory budget the buffer is simply dropped
/// (freed) instead — the pool is an optimization, never a liability.
///
/// Thread-safe; acquire() is best-fit on element capacity (smallest held
/// buffer that can hold the request). On the fixed-pattern workload this is
/// an exact-size hit for every block after the first donation cycle.
///
/// Only buffers of at least kMinElems elements pass through the pool:
/// smaller ones come from the allocator's free lists for less than the
/// pool's per-buffer bookkeeping (tracker charge, lock, map node), which
/// measurably slowed warm steps that recycle tens of thousands of tiles.
class BufferPool {
public:
  static constexpr std::size_t kMinElems = 1024;  ///< 8 KiB of fp64

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool() { clear(); }

  /// A zeroed rows x cols matrix, recycled from the pool when a buffer of
  /// sufficient capacity is held (counted as a hit), freshly allocated
  /// otherwise (a miss). Requests under kMinElems never touch the pool.
  la::DMatrix acquire(index_t rows, index_t cols) {
    const std::size_t need = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    if (need >= kMinElems) {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = free_.lower_bound(need);
      if (it != free_.end()) {
        la::DMatrix m = std::move(it->second);
        MemoryTracker::instance().release(MemCategory::Workspace,
                                          it->first * sizeof(real_t));
        free_.erase(it);
        ++hits_;
        m.reshape(rows, cols);  // zero-fill; keeps capacity when shrinking
        return m;
      }
      ++misses_;
    }
    return la::DMatrix(rows, cols);
  }

  /// Donate a retired buffer for later reuse. Buffers under kMinElems are
  /// freed; a buffer whose Workspace charge would breach the memory budget
  /// is dropped rather than held.
  void recycle(la::DMatrix m) {
    const std::size_t sz = static_cast<std::size_t>(m.size());
    if (sz < kMinElems) return;
    try {
      MemoryTracker::instance().allocate(MemCategory::Workspace, sz * sizeof(real_t));
    } catch (...) {
      return;  // budget breach: let the buffer free instead of holding it
    }
    std::lock_guard<std::mutex> lk(mu_);
    free_.emplace(sz, std::move(m));
  }

  /// Re-register every held buffer with the MemoryTracker. Called after the
  /// per-attempt tracker reset() (which wiped the pool's Workspace charge)
  /// so held buffers stay visible to the freshly-applied budget; buffers
  /// that no longer fit under it are dropped.
  void retrack() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = free_.begin(); it != free_.end();) {
      try {
        MemoryTracker::instance().allocate(MemCategory::Workspace,
                                           it->first * sizeof(real_t));
        ++it;
      } catch (...) {
        it = free_.erase(it);
      }
    }
  }

  /// Free every held buffer (tracker discharged) and zero the counters —
  /// a cold factorize() calls this, so hit/miss counts always describe the
  /// re-factorization passes since the last cold start.
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    drop_held();
    hits_ = 0;
    misses_ = 0;
  }

  /// Free every held buffer but keep the counters: what a pass left in the
  /// pool matched none of its requests, so keeping it across passes would
  /// only let unusable buffers pile up.
  void trim() {
    std::lock_guard<std::mutex> lk(mu_);
    drop_held();
  }

  struct Stats {
    std::uint64_t hits = 0;    ///< acquire() served from a held buffer
    std::uint64_t misses = 0;  ///< acquire() had to allocate fresh
    std::size_t held = 0;      ///< buffers currently held
  };
  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return Stats{hits_, misses_, free_.size()};
  }

private:
  void drop_held() {
    std::size_t held = 0;
    for (const auto& [sz, m] : free_) held += sz;
    if (held > 0)
      MemoryTracker::instance().release(MemCategory::Workspace, held * sizeof(real_t));
    free_.clear();
  }

  mutable std::mutex mu_;
  std::multimap<std::size_t, la::DMatrix> free_;  ///< keyed by element count
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

} // namespace blr::lr
