// Setup-time validation for fault plans.
//
// The validator aggregates every problem it finds into one ConfigError
// instead of throwing on the first — a mis-generated plan typically has the
// same mistake repeated, and seeing all instances at once beats a
// fix-one-rerun loop. Called by the Simulator constructor so a bad config
// fails before any event executes (never mid-run, never silently).
#pragma once

#include <cstddef>

#include "fault/fault.h"

namespace gurita {

/// Validates a fault plan against a fabric with `num_hosts` hosts and
/// `link_count` links. Beyond per-event field checks (finite time >= 0,
/// host/link in range, straggler factor in (0, 1)) this verifies the
/// down/up pairing discipline per entity in time order: a second down while
/// already down, an up while already up, or an end-without-start are all
/// errors. A trailing down with no recovery is allowed — it models a
/// permanent failure (affected jobs fail via retry exhaustion or stranding).
/// Also sanity-checks the retry policy (base_delay > 0, multiplier >= 1,
/// jitter >= 0, max_attempts >= 1). Throws ConfigError listing every issue.
void validate_fault_plan(const FaultPlan& plan, int num_hosts,
                         std::size_t link_count);

}  // namespace gurita
