// Flow calendar of the event-calendar engine (DESIGN.md §8), the engine's
// one heap type.
//
// An indexed binary min-heap holding at most one entry per flow, keyed by a
// time. The completion calendar keys each flow by its projected zero-drain
// time; the fault runtime's retry queue keys each backing-off flow by its
// restart time (DESIGN.md §11). A by-flow-id position index lets a rate
// change re-key the flow's entry in place and lets a finish, abort or job
// failure erase it, so the heap holds exactly the flows with a pending time
// — never more entries than flows, however often keys change.
//
// Entries are ordered by (key, flow id). Flow ids are unique, so the order
// is total: the pop sequence is a function of the entry set alone, never of
// the array layout or the push/pop history that produced it.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace gurita {

class FlowCalendar {
 public:
  /// Flow `flow` is due at `key` (its projected finish or restart).
  struct Entry {
    Time key = 0;
    FlowId flow;
  };

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// The earliest entry by (key, flow id). Requires !empty().
  [[nodiscard]] const Entry& top() const { return heap_.front(); }

  /// Number of flow ids the position index covers (the flow store's size).
  [[nodiscard]] std::size_t index_size() const { return pos_.size(); }
  [[nodiscard]] std::size_t index_capacity() const { return pos_.capacity(); }
  void reserve_index(std::size_t flows) { pos_.reserve(flows); }
  /// Extends the index to the next flow id (flows are numbered densely in
  /// release order). The new flow has no entry.
  void add_flow() { pos_.push_back(kAbsent); }

  /// Inserts `flow` with `key`, or re-keys its entry in place.
  void set(FlowId flow, Time key) {
    const std::uint32_t p = pos_[flow.value()];
    if (p == kAbsent) {
      heap_.push_back(Entry{key, flow});
      sift_up(heap_.size() - 1);
      return;
    }
    const Time old = heap_[p].key;
    heap_[p].key = key;
    if (key < old) {
      sift_up(p);
    } else if (key > old) {
      sift_down(p);
    }
  }

  /// Removes `flow`'s entry, if it has one.
  void erase(FlowId flow) {
    const std::uint32_t p = pos_[flow.value()];
    if (p == kAbsent) return;
    pos_[flow.value()] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (p == heap_.size()) return;  // erased the last slot
    heap_[p] = last;
    pos_[last.flow.value()] = p;
    if (p > 0 && precedes(last, heap_[(p - 1) / 2])) {
      sift_up(p);
    } else {
      sift_down(p);
    }
  }

  /// Removes the top entry. Requires !empty().
  void pop() { erase(heap_.front().flow); }

  /// Compaction: renames every entry's flow through `flow_map` (old id ->
  /// new id) and re-indexes `flows` ids. The renumbering must be monotone
  /// and keep every flow that has an entry; then the (key, id) order of
  /// the entries is unchanged and the array stays a valid heap as is.
  void remap(const std::vector<std::uint64_t>& flow_map, std::size_t flows) {
    pos_.assign(flows, kAbsent);
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      const std::uint64_t renamed = flow_map[heap_[i].flow.value()];
      GURITA_CHECK_MSG(renamed < flows, "compaction evicted a calendar flow");
      heap_[i].flow = FlowId{renamed};
      pos_[renamed] = static_cast<std::uint32_t>(i);
    }
  }

  /// The heap array in layout order (not sorted order).
  [[nodiscard]] const std::vector<Entry>& entries() const { return heap_; }

  /// True when `entries` is a heap array this calendar could hold: every
  /// key is a number and every entry comes no earlier than its parent.
  /// Flow ids are checked by restore's caller against the flow store.
  [[nodiscard]] static bool is_heap(const std::vector<Entry>& entries) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (std::isnan(entries[i].key)) return false;
      if (i > 0 && precedes(entries[i], entries[(i - 1) / 2])) return false;
    }
    return true;
  }

  /// Installs a heap array previously obtained from entries() and indexes
  /// `flows` ids. The caller has validated it: is_heap(), every flow id
  /// below `flows` and none repeated.
  void restore(std::vector<Entry> entries, std::size_t flows) {
    heap_ = std::move(entries);
    pos_.assign(flows, kAbsent);
    for (std::size_t i = 0; i < heap_.size(); ++i)
      pos_[heap_[i].flow.value()] = static_cast<std::uint32_t>(i);
  }

 private:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  /// The heap order: earlier key first, lower flow id on equal keys.
  static bool precedes(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.flow < b.flow;
  }

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.flow.value()] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!precedes(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && precedes(heap_[child + 1], heap_[child])) ++child;
      if (!precedes(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  std::vector<Entry> heap_;
  /// Slot of each flow's entry in heap_ (by flow id), or kAbsent.
  std::vector<std::uint32_t> pos_;
};

}  // namespace gurita
