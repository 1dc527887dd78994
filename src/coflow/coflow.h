// Static description of a coflow: the collection of flows carrying data
// between two successive computation stages of a job (Chowdhury & Stoica,
// "Coflow", HotNets 2012). A coflow completes when all of its flows complete.
//
// The paper identifies three dimensions of a coflow in the multi-stage
// setting (§III.C): horizontal (width — number of flows), vertical (size of
// the largest flow), and depth (position in the job's stage pipeline). The
// first two are properties of this struct; depth belongs to the owning job.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "coflow/flow.h"

namespace gurita {

struct CoflowSpec {
  std::vector<FlowSpec> flows;

  /// Horizontal dimension: number of flows.
  [[nodiscard]] std::size_t width() const { return flows.size(); }

  /// Vertical dimension: size of the largest flow (bytes).
  [[nodiscard]] Bytes max_flow_size() const {
    Bytes m = 0;
    for (const FlowSpec& f : flows) m = f.size > m ? f.size : m;
    return m;
  }

  [[nodiscard]] Bytes total_bytes() const {
    Bytes t = 0;
    for (const FlowSpec& f : flows) t += f.size;
    return t;
  }
};

}  // namespace gurita
