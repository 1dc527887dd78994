#include "exp/registry.h"

#include "common/check.h"
#include "core/gurita.h"
#include "core/gurita_plus.h"
#include "sched/aalo.h"
#include "sched/baraat.h"
#include "sched/mcs.h"
#include "sched/pfs.h"
#include "sched/stream.h"
#include "sched/varys.h"

namespace gurita {

const std::vector<std::string>& scheduler_names() {
  static const std::vector<std::string> names = {
      "pfs",    "baraat",      "stream", "aalo",
      "gurita", "gurita_plus", "varys",  "mcs"};
  return names;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "pfs") return std::make_unique<PfsScheduler>();
  if (name == "baraat") return std::make_unique<BaraatScheduler>();
  if (name == "stream") return std::make_unique<StreamScheduler>();
  if (name == "aalo") return std::make_unique<AaloScheduler>();
  if (name == "gurita") return std::make_unique<GuritaScheduler>();
  if (name == "gurita_plus") return std::make_unique<GuritaPlusScheduler>();
  if (name == "varys") return std::make_unique<VarysScheduler>();
  if (name == "mcs") return std::make_unique<McsScheduler>();
  GURITA_CHECK_MSG(false, "unknown scheduler: " + name);
  return nullptr;  // unreachable
}

}  // namespace gurita
