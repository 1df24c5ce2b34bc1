// Read/write-set dependency inference (DepBuilder) and its drain
// (drain_deps), the scheduling core of the SolvePlan (DESIGN.md §16): edge
// inference, canonical sequential release order, edge-respecting parallel
// execution and cooperative stop without leaked tasks.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "blr.hpp"
#include "core/dep_builder.hpp"

namespace {

using namespace blr;
using core::DepBuilder;

// ---------------------------------------------------------------- DepBuilder

TEST(DepBuilder, ReadDependsOnLastWriter) {
  DepBuilder b;
  const auto w = b.add_task();
  const auto r1 = b.add_task();
  const auto r2 = b.add_task();
  b.write(w, 7);
  b.read(r1, 7);
  b.read(r2, 7);
  const auto d = b.infer();
  EXPECT_EQ(d.num_edges, 2u);
  EXPECT_EQ(d.indeg[w], 0);
  EXPECT_EQ(d.indeg[r1], 1);
  EXPECT_EQ(d.indeg[r2], 1);
}

TEST(DepBuilder, WriteDependsOnReadersSinceLastWrite) {
  DepBuilder b;
  const auto w1 = b.add_task();
  const auto r1 = b.add_task();
  const auto r2 = b.add_task();
  const auto w2 = b.add_task();
  b.write(w1, 3);
  b.read(r1, 3);
  b.read(r2, 3);
  b.write(w2, 3);
  const auto d = b.infer();
  // w1→r1, w1→r2, r1→w2, r2→w2 — and crucially NOT w1→w2 (the readers
  // already transitively order the writers, and the WAR edges are what
  // serialize the write chain).
  EXPECT_EQ(d.num_edges, 4u);
  EXPECT_EQ(d.indeg[w2], 2);
}

TEST(DepBuilder, WritersChainWithoutIntermediateReaders) {
  DepBuilder b;
  const auto w1 = b.add_task();
  const auto w2 = b.add_task();
  const auto w3 = b.add_task();
  b.write(w1, 0);
  b.write(w2, 0);
  b.write(w3, 0);
  const auto d = b.infer();
  EXPECT_EQ(d.num_edges, 2u);  // w1→w2→w3, a chain in declaration order
  EXPECT_EQ(d.indeg[w1], 0);
  EXPECT_EQ(d.indeg[w2], 1);
  EXPECT_EQ(d.indeg[w3], 1);
}

TEST(DepBuilder, DuplicateEdgesAcrossAddressesCollapse) {
  DepBuilder b;
  const auto a = b.add_task();
  const auto c = b.add_task();
  b.write(a, 1);
  b.write(a, 2);
  b.read(c, 1);
  b.read(c, 2);
  b.edge(a, c);  // explicit duplicate of the inferred pair
  const auto d = b.infer();
  EXPECT_EQ(d.num_edges, 1u);
  EXPECT_EQ(d.indeg[c], 1);
}

TEST(DepBuilder, OutOfOrderAccessDeclarationThrows) {
  DepBuilder b;
  const auto t0 = b.add_task();
  const auto t1 = b.add_task();
  b.write(t1, 5);
  b.write(t0, 5);  // accesses must be declared in task order
  EXPECT_THROW((void)b.infer(), Error);
}

TEST(DepBuilder, BackwardExplicitEdgeThrows) {
  DepBuilder b;
  const auto t0 = b.add_task();
  const auto t1 = b.add_task();
  (void)t0;
  EXPECT_THROW(b.edge(t1, t0), Error);
  EXPECT_THROW(b.edge(t1, t1), Error);
}

// ---------------------------------------------------------------- drain_deps

/// A random canonical-order graph: each task reads and writes a few of a
/// small address set, so the inferred structure has RAW, WAR and WAW edges
/// and plenty of independent tasks.
DepBuilder::Deps random_deps(std::uint32_t n, std::uint64_t seed) {
  DepBuilder b;
  Prng rng(seed);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t t = b.add_task();
    const std::uint64_t r = rng.next_u64() % 32;
    const std::uint64_t w = rng.next_u64() % 32;
    if (r < w) {
      b.read(t, r);
      b.write(t, w);
    } else {
      b.write(t, w);
      if (r != w) b.read(t, r);
    }
  }
  return b.infer();
}

std::vector<std::vector<std::uint32_t>> predecessors(const DepBuilder::Deps& d) {
  const std::uint32_t n = static_cast<std::uint32_t>(d.indeg.size());
  std::vector<std::vector<std::uint32_t>> preds(n);
  for (std::uint32_t t = 0; t < n; ++t)
    for (std::uint32_t j = d.succ_offset[t]; j < d.succ_offset[t + 1]; ++j)
      preds[d.succ[j]].push_back(t);
  return preds;
}

TEST(DrainDeps, SequentialReleaseOrderIsCanonical) {
  const DepBuilder::Deps d = random_deps(500, 7);
  ASSERT_GT(d.num_edges, 0u);
  // The min-id sequential drain runs tasks exactly in id order: ids are the
  // canonical declaration order and every edge points forward.
  std::vector<std::uint32_t> order;
  const core::DepDrainStats rs = core::drain_deps(
      d, nullptr,
      [&](std::uint32_t id) {
        order.push_back(id);
        return true;
      },
      [](std::uint32_t) { return 0; });
  ASSERT_EQ(order.size(), 500u);
  EXPECT_EQ(rs.executed, 500u);
  for (std::uint32_t t = 0; t < 500; ++t) EXPECT_EQ(order[t], t);
}

TEST(DrainDeps, ParallelExecutionRespectsEveryEdge) {
  const DepBuilder::Deps d = random_deps(2000, 11);
  const auto preds = predecessors(d);
  ThreadPool pool(4);
  std::vector<std::atomic<bool>> done(preds.size());
  for (auto& x : done) x.store(false);
  std::atomic<bool> violated{false};
  const core::DepDrainStats rs = core::drain_deps(
      d, &pool,
      [&](std::uint32_t id) {
        for (const std::uint32_t p : preds[id])
          if (!done[p].load(std::memory_order_acquire)) violated.store(true);
        done[id].store(true, std::memory_order_release);
        return true;
      },
      [](std::uint32_t) { return 0; });
  EXPECT_EQ(rs.executed, preds.size());
  EXPECT_GE(rs.ready_peak, 1u);
  EXPECT_FALSE(violated.load());
}

TEST(DrainDeps, CooperativeStopLeavesNoTaskBehind) {
  const DepBuilder::Deps d = random_deps(1000, 13);
  const std::uint32_t stop_at = 300;
  for (const int threads : {0, 4}) {
    ThreadPool pool(threads == 0 ? 1 : threads);
    ThreadPool* pp = threads == 0 ? nullptr : &pool;
    std::atomic<std::uint64_t> ran{0};
    const core::DepDrainStats rs = core::drain_deps(
        d, pp,
        [&](std::uint32_t id) {
          ran.fetch_add(1);
          if (id >= stop_at) {
            if (pp != nullptr) pp->cancel();
            return false;  // cooperative stop: successors stay unreleased
          }
          return true;
        },
        [](std::uint32_t) { return 0; });
    EXPECT_LT(rs.executed, 1000u) << "threads=" << threads;
    EXPECT_EQ(rs.executed, ran.load()) << "threads=" << threads;
    if (pp != nullptr) {
      // No task leaks past the drain: the pool is idle and reusable.
      EXPECT_EQ(pp->pending(), 0);
      pp->reset_cancel();
      std::atomic<int> again{0};
      pp->submit([&] { again.fetch_add(1); }, 0);
      pp->wait_idle();
      EXPECT_EQ(again.load(), 1);
    }
  }
}

} // namespace
