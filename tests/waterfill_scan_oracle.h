// Test oracle: the LinkId-indexed scan formulation of one tier group's
// progressive filling, kept verbatim as the reference the shipped
// position-space kernel (flowsim/allocator.cpp) is held bit-identical to.
// Each round rescans every touched link twice, dividing residual by weight
// on every visit; nothing is cached. Slow, and obviously the textbook loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "flowsim/state.h"

namespace gurita::test {

/// LinkId-indexed accumulators plus the CSR flow lists of the scan kernel.
struct ScanScratch {
  std::vector<double> link_weight;          ///< sum of unfrozen weights
  std::vector<std::uint32_t> link_unfrozen; ///< count of unfrozen flows
  std::vector<std::uint32_t> link_nflows;   ///< CSR: flows crossing the link
  std::vector<std::uint32_t> link_off;      ///< CSR: slice start in `csr`
  std::vector<std::uint32_t> link_cur;      ///< CSR: fill cursor
  std::vector<std::uint32_t> csr;           ///< flow indices, link-major
  std::vector<LinkId> touched;              ///< links used by this group
  std::vector<char> frozen;                 ///< per-flow freeze bit

  explicit ScanScratch(std::size_t links)
      : link_weight(links, 0.0),
        link_unfrozen(links, 0),
        link_nflows(links, 0),
        link_off(links, 0),
        link_cur(links, 0) {}
};

/// One tier group's progressive filling. `group[0..n)` all share one tier;
/// `residual` (indexed by LinkId value) must be valid for every link the
/// group touches and is consumed in place.
inline void scan_waterfill_group(SimFlow* const* group, std::size_t n,
                                 Rate* residual, ScanScratch& s) {
  // CSR build, two passes in flow order: count flows per link, assign
  // slices in first-touch order, fill.
  s.touched.clear();
  for (std::size_t i = 0; i < n; ++i) {
    SimFlow* f = group[i];
    GURITA_CHECK_MSG(!f->path.empty(), "active flow with empty path");
    GURITA_CHECK_MSG(f->weight > 0, "flow weight must be positive");
    f->rate = 0;
    for (LinkId l : f->path) {
      if (s.link_nflows[l.value()] == 0) s.touched.push_back(l);
      ++s.link_nflows[l.value()];
      s.link_weight[l.value()] += f->weight;
      ++s.link_unfrozen[l.value()];
    }
  }
  std::uint32_t base = 0;
  for (LinkId l : s.touched) {
    s.link_off[l.value()] = base;
    s.link_cur[l.value()] = base;
    base += s.link_nflows[l.value()];
  }
  if (s.csr.size() < base) s.csr.resize(base);
  for (std::size_t i = 0; i < n; ++i) {
    for (LinkId l : group[i]->path)
      s.csr[s.link_cur[l.value()]++] = static_cast<std::uint32_t>(i);
  }

  s.frozen.assign(n, 0);
  std::size_t remaining = n;

  // Progressive filling: each round finds the bottleneck share, freezes
  // every flow crossing a bottleneck link, consumes capacity, repeats.
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (LinkId l : s.touched) {
      if (s.link_unfrozen[l.value()] == 0) continue;
      const double w = std::max(s.link_weight[l.value()], 1e-300);
      best_share = std::min(best_share, residual[l.value()] / w);
    }
    GURITA_CHECK_MSG(best_share < std::numeric_limits<double>::infinity(),
                     "unfrozen flows but no carrying link");
    best_share = std::max(best_share, 0.0);

    bool froze_any = false;
    for (LinkId l : s.touched) {
      if (s.link_unfrozen[l.value()] == 0) continue;
      const double w = std::max(s.link_weight[l.value()], 1e-300);
      if (residual[l.value()] / w > best_share * (1 + 1e-12) &&
          residual[l.value()] > 1e-9)
        continue;
      const std::uint32_t off = s.link_off[l.value()];
      const std::uint32_t cnt = s.link_nflows[l.value()];
      for (std::uint32_t k = 0; k < cnt; ++k) {
        const std::uint32_t idx = s.csr[off + k];
        if (s.frozen[idx]) continue;
        SimFlow* f = group[idx];
        f->rate = f->weight * best_share;
        s.frozen[idx] = 1;
        froze_any = true;
        --remaining;
        for (LinkId pl : f->path) {
          s.link_weight[pl.value()] -= f->weight;
          --s.link_unfrozen[pl.value()];
          residual[pl.value()] -= f->rate;
          if (residual[pl.value()] < 0) residual[pl.value()] = 0;
        }
      }
    }
    GURITA_CHECK_MSG(froze_any, "waterfill failed to make progress");
  }

  for (LinkId l : s.touched) {
    s.link_weight[l.value()] = 0.0;
    s.link_unfrozen[l.value()] = 0;
    s.link_nflows[l.value()] = 0;
  }
  s.touched.clear();
}

}  // namespace gurita::test
