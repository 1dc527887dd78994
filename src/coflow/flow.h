// Static description of a single flow inside a coflow.
#pragma once

#include "common/units.h"

namespace gurita {

/// One sender → receiver transfer. Host indices refer to the fabric's host
/// numbering (fattree.h).
struct FlowSpec {
  int src_host = 0;
  int dst_host = 0;
  Bytes size = 0;
};

}  // namespace gurita
