// Byte-level codec for simulator snapshots (DESIGN.md §12).
//
// A snapshot is a flat byte string built from fixed-width little-endian
// primitives and length-prefixed variable parts. The encoding is chosen for
// *bit-exact* round-trips, not compactness: doubles travel as their IEEE-754
// bit pattern (never through decimal formatting), so a restored simulator
// resumes from exactly the floating-point state it was checkpointed with —
// the foundation of the byte-identical-resume invariant.
//
// Layering: this header depends only on common/ so that flowsim, sched and
// core code can declare save/load hooks without a dependency cycle; the
// snapshot *format* (sections, fingerprint, file I/O) lives one level up in
// snapshot/snapshot.h.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gurita::snapshot {

/// Malformed, truncated or mismatched snapshot bytes. Deliberately distinct
/// from ConfigError (setup validation) and logic_error (engine invariants):
/// callers may catch it to fall back to a from-scratch run.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends primitives to a byte buffer. All integers are little-endian
/// fixed-width; doubles are bit-cast to their 8-byte IEEE-754 pattern.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Exact bit pattern: NaNs, infinities and signed zeros all survive.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view v) {
    u64(v.size());
    buf_.append(v.data(), v.size());
  }

  /// Opens a length-prefixed section: writes an 8-byte placeholder and
  /// returns a token for end_section, which patches the placeholder with
  /// the number of bytes written in between. Sections let the reader verify
  /// that every nested decoder consumed exactly what its encoder produced.
  [[nodiscard]] std::size_t begin_section() {
    const std::size_t pos = buf_.size();
    u64(0);
    return pos;
  }

  void end_section(std::size_t token) {
    const std::uint64_t len =
        static_cast<std::uint64_t>(buf_.size() - token - 8);
    for (int i = 0; i < 8; ++i)
      buf_[token + static_cast<std::size_t>(i)] =
          static_cast<char>((len >> (8 * i)) & 0xff);
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Consumes a byte buffer written by Writer. Every read is bounds-checked;
/// overruns throw SnapshotError instead of reading garbage. The reader only
/// views the buffer, which must outlive it.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  /// A temporary string would die before the first read.
  explicit Reader(std::string&&) = delete;

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  /// Reads the element count that prefixes a sequence whose every element
  /// encodes to at least `min_bytes_per_item` bytes. A count the remaining
  /// bytes cannot hold throws SnapshotError, so no decoder ever sizes a
  /// container from an unchecked length field.
  [[nodiscard]] std::uint64_t count(std::size_t min_bytes_per_item) {
    const std::uint64_t n = u64();
    if (n > (data_.size() - pos_) / min_bytes_per_item)
      throw SnapshotError("snapshot count " + std::to_string(n) +
                          " at offset " + std::to_string(pos_ - 8) +
                          " exceeds the " +
                          std::to_string(data_.size() - pos_) +
                          " bytes left");
    return n;
  }

  /// Reads a section length and returns the cursor position where the
  /// section must end; pass it to end_section after decoding the contents.
  [[nodiscard]] std::size_t begin_section() {
    const std::uint64_t len = u64();
    need(len);
    return pos_ + static_cast<std::size_t>(len);
  }

  void end_section(std::size_t end) {
    if (pos_ != end)
      throw SnapshotError(
          "snapshot section size mismatch: decoder consumed " +
          std::to_string(pos_) + " bytes, section ends at " +
          std::to_string(end));
  }

  /// Skips to the end of a section without decoding (forward-compat: a
  /// reader may ignore trailing fields appended by a newer writer).
  void skip_to(std::size_t end) {
    if (end < pos_ || end > data_.size())
      throw SnapshotError("snapshot section bound out of range");
    pos_ = end;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  /// Compares against the bytes left rather than computing pos_ + n, which
  /// wraps for a hostile length field near 2^64 (pos_ <= size() always).
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_)
      throw SnapshotError("truncated snapshot: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) +
                          ", have " + std::to_string(data_.size() - pos_));
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Writes an id-keyed table (a map from JobId or CoflowId to a value): the
/// entry count, then each entry as its u64 key followed by whatever
/// `write_value(value)` writes, in ascending key order. An unordered map is
/// sorted first, so the bytes are a pure function of the table's contents.
template <typename Table, typename WriteValue>
void write_table(Writer& w, const Table& table, WriteValue write_value) {
  w.u64(table.size());
  const auto write_entry = [&](const typename Table::value_type& entry) {
    w.u64(entry.first.value());
    write_value(entry.second);
  };
  if constexpr (requires { typename Table::key_compare; }) {
    for (const auto& entry : table) write_entry(entry);
  } else {
    std::vector<const typename Table::value_type*> sorted;
    sorted.reserve(table.size());
    for (const auto& entry : table) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* entry : sorted) write_entry(*entry);
  }
}

/// Replaces `table` with what write_table wrote. The count goes through
/// Reader::count, and every key must lie below `bound` (the id space the
/// table indexes, e.g. the engine's job or coflow count) and strictly above
/// the previous key; otherwise SnapshotError names the table. `read_value`
/// is called with each key and returns its value.
template <typename Table, typename ReadValue>
void read_table(Reader& r, const char* name, std::uint64_t bound,
                Table& table, ReadValue read_value) {
  using Key = typename Table::key_type;
  table.clear();
  const std::uint64_t n = r.count(8);  // each entry starts with its u64 key
  for (std::uint64_t i = 0, previous = 0; i < n; ++i) {
    const std::uint64_t key = r.u64();
    if (key >= bound)
      throw SnapshotError(std::string("corrupt snapshot: ") + name +
                          " key " + std::to_string(key) +
                          " out of range (bound " + std::to_string(bound) +
                          ")");
    if (i > 0 && key <= previous)
      throw SnapshotError(std::string("corrupt snapshot: ") + name +
                          " key " + std::to_string(key) +
                          " not above the previous key " +
                          std::to_string(previous));
    previous = key;
    table.emplace_hint(table.end(), Key{key}, read_value(Key{key}));
  }
}

}  // namespace gurita::snapshot
