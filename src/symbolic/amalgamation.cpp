#include "symbolic/amalgamation.hpp"

#include "common/error.hpp"

namespace blr::symbolic {

std::vector<index_t> amalgamate(const sparse::CscMatrix& a,
                                const ordering::Ordering& ord,
                                std::vector<index_t> ranges,
                                const AmalgamationOptions& opts) {
  BLR_CHECK(opts.frat >= 0, "frat must be non-negative");
  if (ranges.size() <= 2) return ranges;

  // One symbolic factorization; each pass then updates the (width, height,
  // parent) arrays in place. That is exact: merging child c into its parent
  // p gives a supernode whose row set is R(p) (c's rows below p are in R(p)
  // by construction), and every other supernode keeps its row set and hence
  // its height and parent — only the supernode numbering shifts.
  const SymbolicFactor sf = SymbolicFactor::build(a, ord, ranges);
  // Fill budget is relative to the *initial* block structure.
  const double budget = opts.frat * static_cast<double>(sf.factor_entries_lower());
  double spent = 0;
  index_t ncblk = sf.num_cblks();
  std::vector<index_t> width(static_cast<std::size_t>(ncblk));
  std::vector<index_t> height(static_cast<std::size_t>(ncblk));
  std::vector<index_t> parent(static_cast<std::size_t>(ncblk));
  for (index_t k = 0; k < ncblk; ++k) {
    const Cblk& c = sf.cblk(k);
    width[static_cast<std::size_t>(k)] = c.width();
    height[static_cast<std::size_t>(k)] = c.height();
    parent[static_cast<std::size_t>(k)] = c.parent;
  }

  for (int pass = 0; pass < opts.max_passes; ++pass) {
    // Greedy non-overlapping merge of (child, parent = child + 1) pairs.
    // A parent is locked for the rest of the pass once a child merged into
    // it, so chains merge one link per pass and every decision uses the
    // structure as it stood at the start of the pass.
    std::vector<char> merge(static_cast<std::size_t>(ncblk), 0);  // k merges into k + 1
    bool any = false;
    for (index_t k = 0; k + 1 < ncblk; ++k) {
      const auto ck = static_cast<std::size_t>(k);
      if (k > 0 && merge[ck - 1]) continue;             // locked parent
      if (parent[ck] != k + 1) continue;                // parent must be range-adjacent
      if (width[ck] >= opts.min_width) continue;        // only merge small supernodes

      // Added explicit zeros when c's columns adopt the merged structure:
      // before: wc^2 + hc*wc  (c)  +  wp^2 + hp*wp  (p)
      // after : (wc+wp)^2 + hp*(wc+wp)
      const double wc = static_cast<double>(width[ck]);
      const double wp = static_cast<double>(width[ck + 1]);
      const double hc = static_cast<double>(height[ck]);
      const double hp = static_cast<double>(height[ck + 1]);
      const double added = wc * (2 * wp + hp - hc);
      if (spent + added > budget) continue;

      spent += added;
      merge[ck] = 1;
      any = true;
    }
    if (!any) break;

    // Compact: a merged child folds its width into its parent, which keeps
    // its own height; parents are renumbered.
    std::vector<index_t> newid(static_cast<std::size_t>(ncblk));
    index_t m = 0;
    for (index_t k = 0; k < ncblk; ++k) {
      newid[static_cast<std::size_t>(k)] = m;
      if (!merge[static_cast<std::size_t>(k)]) ++m;
    }
    m = 0;
    for (index_t k = 0; k < ncblk; ++k) {
      const auto ck = static_cast<std::size_t>(k);
      if (merge[ck]) {
        width[ck + 1] += width[ck];
        continue;
      }
      const auto cm = static_cast<std::size_t>(m);
      width[cm] = width[ck];
      height[cm] = height[ck];
      parent[cm] = parent[ck] < 0 ? -1 : newid[static_cast<std::size_t>(parent[ck])];
      ++m;
    }
    ncblk = m;
    width.resize(static_cast<std::size_t>(ncblk));
    height.resize(static_cast<std::size_t>(ncblk));
    parent.resize(static_cast<std::size_t>(ncblk));
  }

  ranges.resize(static_cast<std::size_t>(ncblk) + 1);
  for (index_t k = 0; k < ncblk; ++k) {
    ranges[static_cast<std::size_t>(k) + 1] =
        ranges[static_cast<std::size_t>(k)] + width[static_cast<std::size_t>(k)];
  }
  return ranges;
}

} // namespace blr::symbolic
