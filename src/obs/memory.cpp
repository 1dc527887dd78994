#include "obs/memory.h"

namespace gurita::obs {

const char* MemoryAccountant::subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kState: return "state";
    case Subsystem::kCalendar: return "calendar";
    case Subsystem::kAllocator: return "allocator";
    case Subsystem::kTrace: return "trace";
    case Subsystem::kActiveSet: return "active_set";
    case Subsystem::kFaultRuntime: return "fault_runtime";
  }
  return "?";
}

}  // namespace gurita::obs
