// Strongly typed integer identifiers.
//
// Every entity in the simulator (link, flow, coflow, job) is referred
// to by an id. Using a distinct C++ type per entity kind makes it impossible
// to pass a FlowId where a LinkId is expected — a class of bug that plain
// `int` ids invite in event-driven simulators.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>

namespace gurita {

/// A strongly typed, trivially copyable integer id.
///
/// `Tag` is a phantom type that distinguishes id families. Ids are ordered
/// and hashable so they can be used as map keys and sorted deterministically.
template <typename Tag>
class TypedId {
 public:
  using underlying_type = std::uint64_t;

  constexpr TypedId() = default;
  constexpr explicit TypedId(underlying_type v) : value_(v) {}

  /// Sentinel id meaning "no entity".
  static constexpr TypedId invalid() {
    return TypedId{std::numeric_limits<underlying_type>::max()};
  }

  [[nodiscard]] constexpr underlying_type value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const {
    return value_ != invalid().value_;
  }

  friend constexpr bool operator==(TypedId a, TypedId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(TypedId a, TypedId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(TypedId a, TypedId b) {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator>(TypedId a, TypedId b) {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator<=(TypedId a, TypedId b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>=(TypedId a, TypedId b) {
    return a.value_ >= b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, TypedId id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value_;
  }

 private:
  underlying_type value_ = invalid().value_;
};

struct LinkTag {};
struct FlowTag {};
struct CoflowTag {};
struct JobTag {};

/// Identifies a directed link in the topology.
using LinkId = TypedId<LinkTag>;
/// Identifies a single network flow.
using FlowId = TypedId<FlowTag>;
/// Identifies a coflow (a group of flows between two job stages).
using CoflowId = TypedId<CoflowTag>;
/// Identifies a multi-stage job (a DAG of coflows).
using JobId = TypedId<JobTag>;

}  // namespace gurita

namespace std {
template <typename Tag>
struct hash<gurita::TypedId<Tag>> {
  size_t operator()(gurita::TypedId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
