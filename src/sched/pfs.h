// Per-Flow Fair Sharing (PFS) — the paper's baseline.
//
// "A scheduling scheme that divides the resource capacity equally among
// flows traversing the same link" (§V): exactly (unweighted) max-min
// fairness, which is what TCP approximates in steady state. Every coflow
// keeps the default priority — one tier, weight 1 — so PFS writes none.
#pragma once

#include "flowsim/scheduler.h"

namespace gurita {

class PfsScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "pfs"; }
};

}  // namespace gurita
