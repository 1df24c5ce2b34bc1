#include "ordering/ordering.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <numeric>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace blr::ordering {

namespace {

/// Subgraphs at least this large fork their parts (the two halves, or the
/// connected components) onto the pool; smaller ones recurse inline, where
/// a task would cost more than it saves.
constexpr index_t kParallelCutoff = 1024;

/// BFS level of every vertex from `start`; returns (levels, farthest vertex,
/// number of levels). Unreached vertices keep level -1.
struct BfsResult {
  std::vector<index_t> level;
  index_t farthest;
  index_t num_levels;
  index_t reached;  ///< vertices reached; < |g| iff g is disconnected
};

BfsResult bfs_levels(const sparse::Graph& g, index_t start) {
  BfsResult r;
  r.level.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<index_t> queue;
  queue.reserve(static_cast<std::size_t>(g.num_vertices()));
  queue.push_back(start);
  r.level[static_cast<std::size_t>(start)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const index_t v = queue[head];
    const index_t next = r.level[static_cast<std::size_t>(v)] + 1;
    for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
      if (r.level[static_cast<std::size_t>(*u)] < 0) {
        r.level[static_cast<std::size_t>(*u)] = next;
        queue.push_back(*u);
      }
    }
  }
  // The last vertex queued sits on the deepest level.
  r.farthest = queue.back();
  r.num_levels = r.level[static_cast<std::size_t>(r.farthest)] + 1;
  r.reached = static_cast<index_t>(queue.size());
  return r;
}

/// BFS visit order over the whole (possibly disconnected) graph; gives
/// locality-preserving intra-supernode orderings.
std::vector<index_t> bfs_order(const sparse::Graph& g) {
  const index_t n = g.num_vertices();
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (index_t s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    seen[static_cast<std::size_t>(s)] = 1;
    std::size_t head = order.size();
    order.push_back(s);
    while (head < order.size()) {
      const index_t v = order[head++];
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        if (!seen[static_cast<std::size_t>(*u)]) {
          seen[static_cast<std::size_t>(*u)] = 1;
          order.push_back(*u);
        }
      }
    }
  }
  return order;
}

/// find_separator() with the BFS from vertex 0 — the first source of the
/// chase — already computed by the caller.
Separator separate(const sparse::Graph& g, const NdOptions& opts, BfsResult from0) {
  const index_t n = g.num_vertices();

  // BFS sources: 0, then pseudo-peripheral chases. The level sets computed
  // along the chase are the candidates scored below.
  std::vector<BfsResult> bfs;
  std::vector<index_t> sources;
  index_t src = 0;
  for (int trial = 0; trial < opts.bfs_trials; ++trial) {
    if (std::find(sources.begin(), sources.end(), src) != sources.end()) break;
    sources.push_back(src);
    bfs.push_back(trial == 0 ? std::move(from0) : bfs_levels(g, src));
    src = bfs.back().farthest;
  }

  // Best candidate so far: the level set `best_m` of BFS `best_src`.
  index_t best_cost = n + 1;
  double best_balance = 0.0;
  std::size_t best_src = bfs.size();
  index_t best_m = -1;
  for (std::size_t i = 0; i < bfs.size(); ++i) {
    const BfsResult& r = bfs[i];
    if (r.num_levels < 3) continue;
    // Count vertices per level.
    std::vector<index_t> count(static_cast<std::size_t>(r.num_levels), 0);
    // Unreached vertices (disconnected graph) keep level -1; they fall into
    // part A below (-1 < m for every candidate level), so skip them here.
    for (const index_t l : r.level) {
      if (l >= 0) ++count[static_cast<std::size_t>(l)];
    }
    index_t below = count[0];
    for (index_t m = 1; m + 1 < r.num_levels; ++m) {
      const index_t ns = count[static_cast<std::size_t>(m)];
      const index_t na = below;
      const index_t nb = n - na - ns;
      below += ns;
      if (na == 0 || nb == 0) continue;
      const double balance =
          static_cast<double>(std::min(na, nb)) / static_cast<double>(na + nb);
      const bool feasible = balance >= opts.balance_frac;
      // Prefer feasible splits with the smallest separator; among infeasible
      // candidates keep the most balanced as a fallback.
      const bool take =
          feasible ? (ns < best_cost || (ns == best_cost && balance > best_balance))
                   : (best_cost > n && balance > best_balance);
      if (!take) continue;
      if (feasible) best_cost = ns;
      best_balance = balance;
      best_src = i;
      best_m = m;
    }
  }

  Separator best;
  if (best_src == bfs.size()) {  // no split found: everything is separator
    best.s.resize(static_cast<std::size_t>(n));
    std::iota(best.s.begin(), best.s.end(), index_t{0});
    return best;
  }

  std::vector<char> side(static_cast<std::size_t>(n));  // 0=A, 1=B, 2=S
  std::size_t size_a = 0, size_b = 0;
  for (index_t v = 0; v < n; ++v) {
    const index_t l = bfs[best_src].level[static_cast<std::size_t>(v)];
    if (l < best_m) {
      side[static_cast<std::size_t>(v)] = 0;
      ++size_a;
    } else if (l == best_m) {
      side[static_cast<std::size_t>(v)] = 2;
      best.s.push_back(v);
    } else {
      side[static_cast<std::size_t>(v)] = 1;
      ++size_b;
    }
  }
  bfs.clear();

  // Shrink the separator: a separator vertex with no neighbor on one side
  // can move to the other side without reconnecting A and B. Vertices only
  // leave S here, so sweeping the initial S list is a sweep over S.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const index_t v : best.s) {
      if (side[static_cast<std::size_t>(v)] != 2) continue;
      bool touches_a = false;
      bool touches_b = false;
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        const char su = side[static_cast<std::size_t>(*u)];
        touches_a |= (su == 0);
        touches_b |= (su == 1);
      }
      if (!touches_a && !touches_b) {
        // Isolated from both parts: put it on the smaller side.
        side[static_cast<std::size_t>(v)] = (size_a <= size_b) ? 0 : 1;
        changed = true;
      } else if (!touches_b) {
        side[static_cast<std::size_t>(v)] = 0;
        changed = true;
      } else if (!touches_a) {
        side[static_cast<std::size_t>(v)] = 1;
        changed = true;
      }
    }
  }
  // FM-style refinement: moving a separator vertex v into part P removes it
  // from S but pulls v's neighbors from the *other* part into S, so the
  // separator shrinks whenever v has at most one such neighbor. Greedy
  // positive-gain passes with a balance guard.
  for (int pass = 0; pass < opts.fm_passes; ++pass) {
    bool improved = false;
    index_t na = 0, nb = 0;
    for (index_t v = 0; v < n; ++v) {
      na += side[static_cast<std::size_t>(v)] == 0;
      nb += side[static_cast<std::size_t>(v)] == 1;
    }
    for (index_t v = 0; v < n; ++v) {
      if (side[static_cast<std::size_t>(v)] != 2) continue;
      index_t in_a = 0, in_b = 0;
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        in_a += side[static_cast<std::size_t>(*u)] == 0;
        in_b += side[static_cast<std::size_t>(*u)] == 1;
      }
      const index_t gain_to_a = 1 - in_b;  // separator-size reduction
      const index_t gain_to_b = 1 - in_a;
      // Pick the better strictly-improving move; prefer growing the smaller
      // part on ties to keep the recursion balanced.
      int dest = -1;
      if (gain_to_a > 0 && (gain_to_a > gain_to_b || (gain_to_a == gain_to_b && na <= nb))) {
        dest = 0;
      } else if (gain_to_b > 0) {
        dest = 1;
      }
      if (dest < 0) continue;
      side[static_cast<std::size_t>(v)] = static_cast<char>(dest);
      (dest == 0 ? na : nb) += 1;
      // Opposite-side neighbors join the separator.
      for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
        if (side[static_cast<std::size_t>(*u)] == (dest == 0 ? 1 : 0)) {
          side[static_cast<std::size_t>(*u)] = 2;
          (dest == 0 ? nb : na) -= 1;
        }
      }
      improved = true;
    }
    if (!improved) break;
  }

  // Rebuild the three sets from the final side assignment.
  best.a.clear();
  best.b.clear();
  best.s.clear();
  for (index_t v = 0; v < n; ++v) {
    switch (side[static_cast<std::size_t>(v)]) {
      case 0: best.a.push_back(v); break;
      case 1: best.b.push_back(v); break;
      default: best.s.push_back(v); break;
    }
  }
  // Refinement can empty a side on tiny graphs; callers treat that as
  // "no usable separator".
  return best;
}

/// A vertex subset with its induced subgraph; `global[local]` is the
/// vertex id in the graph nested_dissection() was called on.
struct Part {
  sparse::Graph g;
  std::vector<index_t> global;
};

/// Splits g by `label` (in [0, nparts) per vertex) into induced subgraphs,
/// in one pass over g. Each part holds its vertices in ascending order, so
/// its graph equals g.induced(that list): same numbering, same adjacency
/// order. Unlike one induced() call per part, the cost is O(|g|) in total.
std::vector<Part> split_parts(const sparse::Graph& g,
                              const std::vector<index_t>& global,
                              const std::vector<index_t>& label,
                              index_t nparts) {
  const index_t n = g.num_vertices();
  std::vector<Part> parts(static_cast<std::size_t>(nparts));
  std::vector<std::vector<index_t>> ptr(static_cast<std::size_t>(nparts),
                                        std::vector<index_t>{0});
  std::vector<std::vector<index_t>> adj(static_cast<std::size_t>(nparts));
  std::vector<index_t> local(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    auto& part = parts[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])];
    local[static_cast<std::size_t>(v)] = static_cast<index_t>(part.global.size());
    part.global.push_back(global[static_cast<std::size_t>(v)]);
  }
  for (index_t v = 0; v < n; ++v) {
    const index_t p = label[static_cast<std::size_t>(v)];
    auto& list = adj[static_cast<std::size_t>(p)];
    for (const index_t* u = g.neighbors_begin(v); u != g.neighbors_end(v); ++u) {
      if (label[static_cast<std::size_t>(*u)] == p) list.push_back(local[static_cast<std::size_t>(*u)]);
    }
    ptr[static_cast<std::size_t>(p)].push_back(static_cast<index_t>(list.size()));
  }
  for (index_t p = 0; p < nparts; ++p) {
    auto& part = parts[static_cast<std::size_t>(p)];
    part.g = sparse::Graph(static_cast<index_t>(part.global.size()),
                           std::move(ptr[static_cast<std::size_t>(p)]),
                           std::move(adj[static_cast<std::size_t>(p)]));
  }
  return parts;
}

/// The recursion of nested_dissection(). Every call owns a preassigned
/// slice of `perm` and writes exactly its own vertices there, so sibling
/// subtrees may run concurrently and the result does not depend on which
/// thread ran what (DESIGN.md §17).
class Dissector {
public:
  Dissector(const NdOptions& opts, ThreadPool* pool, std::vector<index_t>& perm,
            std::vector<char>& ends)
      : opts_(opts), pool_(pool), perm_(perm), ends_(ends) {}

  /// Orders the vertices of `g` into perm[off, off + |g|).
  void dissect(const sparse::Graph& g, const std::vector<index_t>& global, index_t off) {
    const index_t k = g.num_vertices();
    if (k == 0) return;
    if (k <= opts_.cmin) {
      emit_supernode(g, global, off, true);
      return;
    }
    // The BFS from vertex 0 starts the separator search and doubles as the
    // connectivity test.
    BfsResult from0 = bfs_levels(g, 0);
    if (from0.reached < k) {
      // Dissect each connected component independently, in component order.
      const auto [comp, ncomp] = g.connected_components();
      const std::vector<Part> parts = split_parts(g, global, comp, ncomp);
      std::vector<index_t> offs(static_cast<std::size_t>(ncomp));
      for (index_t c = 0; c < ncomp; ++c) {
        offs[static_cast<std::size_t>(c)] = off;
        off += parts[static_cast<std::size_t>(c)].g.num_vertices();
      }
      fork(k, ncomp, [&](index_t c) {
        const Part& part = parts[static_cast<std::size_t>(c)];
        dissect(part.g, part.global, offs[static_cast<std::size_t>(c)]);
      });
      return;
    }
    std::vector<index_t> side(static_cast<std::size_t>(k), 2);
    {
      const Separator sep = separate(g, opts_, std::move(from0));
      if (sep.a.empty() || sep.b.empty()) {
        emit_supernode(g, global, off, true);  // dense-ish subgraph, keep whole
        return;
      }
      for (const index_t v : sep.a) side[static_cast<std::size_t>(v)] = 0;
      for (const index_t v : sep.b) side[static_cast<std::size_t>(v)] = 1;
    }
    const std::vector<Part> parts = split_parts(g, global, side, 3);
    const index_t na = parts[0].g.num_vertices();
    const index_t nb = parts[1].g.num_vertices();
    // A, then B, then the separator that splits them.
    fork(k, 2, [&](index_t h) {
      const Part& part = parts[static_cast<std::size_t>(h)];
      dissect(part.g, part.global, h == 0 ? off : off + na);
    });
    emit_supernode(parts[2].g, parts[2].global, off + na + nb, opts_.reorder_separators);
  }

  /// Rethrows the first exception a pool task caught, if any.
  void rethrow_failure() const {
    if (failure_) std::rethrow_exception(failure_);
  }

private:
  /// Runs f(0..count-1), on the pool when the subgraph is large enough.
  template <typename F>
  void fork(index_t size, index_t count, F&& f) {
    if (pool_ == nullptr || size < kParallelCutoff) {
      for (index_t i = 0; i < count; ++i) f(i);
      return;
    }
    // An exception must not escape a pool task: keep the first one (an
    // allocation failure on a huge graph) for nested_dissection() to rethrow.
    pool_->parallel_for(count, [&](index_t i) {
      try {
        f(i);
      } catch (...) {
        const std::lock_guard lock(failure_mu_);
        if (!failure_) failure_ = std::current_exception();
      }
    });
  }

  /// Emits one supernode holding all of `g`, ordered for locality.
  void emit_supernode(const sparse::Graph& g, const std::vector<index_t>& global,
                      index_t off, bool reorder) {
    const index_t k = g.num_vertices();
    if (k == 0) return;
    auto* out = perm_.data() + off;
    if (reorder && k > 2) {
      for (const index_t local : bfs_order(g)) *out++ = global[static_cast<std::size_t>(local)];
    } else {
      std::copy(global.begin(), global.end(), out);
    }
    ends_[static_cast<std::size_t>(off + k)] = 1;
  }

  const NdOptions& opts_;
  ThreadPool* pool_;
  std::vector<index_t>& perm_;
  std::vector<char>& ends_;  ///< ends_[i] = 1: a supernode ends at position i
  std::mutex failure_mu_;
  std::exception_ptr failure_;  ///< guarded by failure_mu_
};

} // namespace

Separator find_separator(const sparse::Graph& g, const NdOptions& opts) {
  if (g.num_vertices() == 0) return {};
  return separate(g, opts, bfs_levels(g, 0));
}

Ordering nested_dissection(const sparse::Graph& g, const NdOptions& opts,
                           ThreadPool* pool) {
  BLR_CHECK(opts.cmin >= 1, "cmin must be >= 1");
  const index_t n = g.num_vertices();
  Ordering out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::vector<char> ends(static_cast<std::size_t>(n) + 1, 0);

  std::vector<index_t> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), index_t{0});
  Dissector dissector(opts, pool, out.perm, ends);
  dissector.dissect(g, all, 0);
  dissector.rethrow_failure();

  out.ranges.push_back(0);
  for (index_t i = 1; i <= n; ++i) {
    if (ends[static_cast<std::size_t>(i)]) out.ranges.push_back(i);
  }
  BLR_CHECK(out.ranges.back() == n, "ordering lost vertices");
  out.iperm.resize(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    out.iperm[static_cast<std::size_t>(out.perm[static_cast<std::size_t>(i)])] = i;
  return out;
}

Ordering natural_order(index_t n, index_t chunk) {
  BLR_CHECK(chunk >= 1, "chunk must be >= 1");
  Ordering out;
  out.perm.resize(static_cast<std::size_t>(n));
  std::iota(out.perm.begin(), out.perm.end(), index_t{0});
  out.iperm = out.perm;
  out.ranges.push_back(0);
  for (index_t r = chunk; r < n; r += chunk) out.ranges.push_back(r);
  out.ranges.push_back(n);
  return out;
}

} // namespace blr::ordering
