// Umbrella header: the complete public API of the Gurita reproduction.
//
//   #include "gurita.h"
//
// pulls in the fabric builders, the job/coflow model, the flow-level
// simulator, every scheduler, the workload generators and the metrics.
// Fine-grained headers remain available for faster builds.
#pragma once

// Primitives
#include "common/ids.h"       // IWYU pragma: export
#include "common/rng.h"       // IWYU pragma: export
#include "common/stats.h"     // IWYU pragma: export
#include "common/units.h"     // IWYU pragma: export

// Fabrics
#include "topology/big_switch.h"  // IWYU pragma: export
#include "topology/fabric.h"      // IWYU pragma: export
#include "topology/fattree.h"     // IWYU pragma: export

// Job / coflow model
#include "coflow/coflow.h"         // IWYU pragma: export
#include "coflow/critical_path.h"  // IWYU pragma: export
#include "coflow/job.h"            // IWYU pragma: export
#include "coflow/shapes.h"         // IWYU pragma: export

// Simulator
#include "flowsim/scheduler.h"  // IWYU pragma: export
#include "flowsim/simulator.h"  // IWYU pragma: export

// Schedulers
#include "core/gurita.h"       // IWYU pragma: export
#include "core/gurita_plus.h"  // IWYU pragma: export
#include "core/optimal.h"      // IWYU pragma: export
#include "sched/aalo.h"        // IWYU pragma: export
#include "sched/baraat.h"      // IWYU pragma: export
#include "sched/mcs.h"         // IWYU pragma: export
#include "sched/pfs.h"         // IWYU pragma: export
#include "sched/stream.h"      // IWYU pragma: export
#include "sched/varys.h"       // IWYU pragma: export

// Workloads & metrics & harness
#include "exp/experiment.h"     // IWYU pragma: export
#include "exp/registry.h"       // IWYU pragma: export
#include "metrics/category.h"   // IWYU pragma: export
#include "metrics/collector.h"  // IWYU pragma: export
#include "metrics/extended.h"   // IWYU pragma: export
#include "workload/feed.h"      // IWYU pragma: export
#include "workload/trace_gen.h" // IWYU pragma: export
