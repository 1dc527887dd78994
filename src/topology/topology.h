// The capacity table of a fabric's directed links — all the flow simulator
// reads of a network. A link is its LinkId, 0 .. link_count()-1, and its
// capacity; full-duplex cables are two independent directed links. Each
// fabric documents which ids its routes use (fattree.h, big_switch.h).
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace gurita {

class Topology {
 public:
  Topology() = default;
  /// `count` links of one capacity, ids 0 .. count-1.
  Topology(std::size_t count, Rate capacity) {
    GURITA_CHECK_MSG(capacity > 0, "link capacity must be positive");
    capacities_.assign(count, capacity);
  }

  /// Appends a link and returns its id (the next one in sequence).
  LinkId add_link(Rate capacity) {
    GURITA_CHECK_MSG(capacity > 0, "link capacity must be positive");
    capacities_.push_back(capacity);
    return LinkId{capacities_.size() - 1};
  }

  [[nodiscard]] std::size_t link_count() const { return capacities_.size(); }

  [[nodiscard]] Rate capacity(LinkId id) const {
    GURITA_CHECK_MSG(id.value() < capacities_.size(), "link id out of range");
    return capacities_[id.value()];
  }

 private:
  std::vector<Rate> capacities_;
};

}  // namespace gurita
