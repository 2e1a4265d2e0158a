// Snapshot: the versioned, endianness-pinned binary checkpoint format
// behind Simulator::save/restore.
//
// Layout (all multi-byte fields little-endian, independent of host order):
//
//   magic   "MTESNAP\n"                         8 bytes
//   u32     format version (kSnapshotVersion)
//   u8      KernelKind at save time (informational — restore rebuilds the
//           *current* kernel's scheduler state from scratch, so a snapshot
//           taken under one kernel restores under the other)
//   u8      demoted-to-naive flag at save time
//   u64     cycle count
//   u64     wire count
//   per wire:       u16 payload length + payload (WireBase::save_value)
//   u64     component count
//   per component:  string name, u8 flags (bit0 = tick idle hint),
//                   u32 payload length + payload (Component::save_state)
//                   + u32 CRC32 of the payload
//   u64     end marker (kSnapshotEnd)
//
// The per-component framing is the loud-failure mechanism: a component
// whose load_state reads fewer or more bytes than its save_state wrote
// fails the frame-consumption check, and a corrupted stream fails the
// CRC — both as SnapshotError, never as silently wrong state. A crafted
// frame can carry a valid CRC, so every count that sizes a container is
// read through SnapshotReader::read_count, which bounds it by the bytes
// left in the frame.
//
// Scheduler state (worklists, levelization, process slots) is NOT part of
// a snapshot by design: restore rematerializes it exactly like reset()
// does, by scheduling a full evaluation sweep. Diagnostics counters
// (eval/tick counts, settle work) are also excluded — they describe the
// run, not the circuit state.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/types.hpp"

namespace mte::sim {

/// Raised on any malformed, truncated, version-mismatched, or
/// CRC-inconsistent snapshot stream, and on save/restore against a
/// simulator whose structure does not match the snapshot. A failed
/// restore leaves the simulator in an unspecified state; call reset().
class SnapshotError : public SimulationError {
 public:
  using SimulationError::SimulationError;
};

inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::array<char, 8> kSnapshotMagic = {'M', 'T', 'E', 'S',
                                                       'N', 'A', 'P', '\n'};
inline constexpr std::uint64_t kSnapshotEnd = 0x21444e4550414e53ULL;  // "SNAPEND!"

/// CRC32 (IEEE 802.3, reflected) over a byte range.
[[nodiscard]] inline std::uint32_t snapshot_crc32(const std::uint8_t* data,
                                                  std::size_t len) noexcept {
  static constexpr auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = ((c & 1u) != 0) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

/// Accumulates a snapshot into a byte buffer; every primitive is written
/// little-endian regardless of host byte order. write_to drains the buffer
/// into a stream, so a long snapshot can leave in pieces; offsets
/// (position(), frame tokens) count from the last drain.
class SnapshotWriter {
 public:
  void write_u8(std::uint8_t v) { bytes_.push_back(v); }

  void write_u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void write_u32(std::uint32_t v) {
    for (int k = 0; k < 4; ++k) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }
  }

  void write_u64(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
    }
  }

  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  void write_f64(double v) { write_u64(std::bit_cast<std::uint64_t>(v)); }

  void write_string(const std::string& s) {
    write_u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) bytes_.push_back(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] std::size_t position() const noexcept { return bytes_.size(); }

  /// Opens a length-prefixed, CRC-trailed frame; returns a token for
  /// end_frame. Frames nest.
  [[nodiscard]] std::size_t begin_frame() {
    write_u32(0);  // length placeholder, patched by end_frame
    return bytes_.size();
  }

  /// Closes a frame: patches the length prefix and appends the CRC32 of
  /// the payload written since begin_frame.
  void end_frame(std::size_t start) {
    const std::size_t len = bytes_.size() - start;
    patch_u32(start - 4, static_cast<std::uint32_t>(len));
    write_u32(snapshot_crc32(bytes_.data() + start, len));
  }

  /// Opens a u16 length-prefixed section (no CRC) — the per-wire framing.
  [[nodiscard]] std::size_t begin_short_frame() {
    write_u16(0);
    return bytes_.size();
  }

  void end_short_frame(std::size_t start) {
    const std::size_t len = bytes_.size() - start;
    if (len > 0xffff) {
      throw SnapshotError("snapshot wire payload exceeds 64 KiB");
    }
    patch_u16(start - 2, static_cast<std::uint16_t>(len));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }

  /// Appends the buffered bytes to `os` and empties the buffer, keeping
  /// its capacity. Frame tokens are buffer offsets: drain only while no
  /// frame is open.
  void write_to(std::ostream& os) {
    os.write(reinterpret_cast<const char*>(bytes_.data()),
             static_cast<std::streamsize>(bytes_.size()));
    if (!os) throw SnapshotError("snapshot write to stream failed");
    bytes_.clear();
  }

 private:
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int k = 0; k < 4; ++k) {
      bytes_[pos + static_cast<std::size_t>(k)] =
          static_cast<std::uint8_t>(v >> (8 * k));
    }
  }

  void patch_u16(std::size_t pos, std::uint16_t v) {
    bytes_[pos] = static_cast<std::uint8_t>(v);
    bytes_[pos + 1] = static_cast<std::uint8_t>(v >> 8);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a snapshot byte buffer. Every read past the
/// current frame limit (or the end of the buffer) throws SnapshotError —
/// truncated streams fail loudly at the first missing byte.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)), limit_(bytes_.size()) {}

  /// Reads `is` to its end. When the stream can tell its remaining length
  /// (a file, a string stream), the buffer is sized once up front.
  static SnapshotReader from_stream(std::istream& is) {
    std::vector<std::uint8_t> bytes;
    if (const std::istream::pos_type here = is.tellg(); here != std::istream::pos_type(-1)) {
      is.seekg(0, std::ios::end);
      const std::streamoff left = is.tellg() - here;
      is.seekg(here);
      if (is && left > 0) bytes.reserve(static_cast<std::size_t>(left));
    }
    char chunk[4096];
    while (is.read(chunk, sizeof chunk) || is.gcount() > 0) {
      bytes.insert(bytes.end(), chunk, chunk + is.gcount());
    }
    if (is.bad()) throw SnapshotError("snapshot read from stream failed");
    return SnapshotReader(std::move(bytes));
  }

  [[nodiscard]] std::uint8_t read_u8() {
    need(1);
    return bytes_[pos_++];
  }

  [[nodiscard]] std::uint16_t read_u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(bytes_[pos_]) |
        static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t read_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(k)])
           << (8 * k);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t read_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(k)])
           << (8 * k);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] bool read_bool() {
    const std::uint8_t v = read_u8();
    if (v > 1) throw SnapshotError("snapshot bool field holds " + std::to_string(v));
    return v != 0;
  }

  [[nodiscard]] double read_f64() { return std::bit_cast<double>(read_u64()); }

  /// Reads a u64 element count. Every element takes at least one byte, so
  /// a count above the bytes left in the current frame is malformed: it
  /// throws SnapshotError before anything is sized by it (a crafted count
  /// under a valid CRC must not reach reserve() or resize()).
  [[nodiscard]] std::size_t read_count() {
    const std::size_t at = pos_;
    const std::uint64_t n = read_u64();
    if (n > limit_ - pos_) {
      throw SnapshotError("snapshot count " + std::to_string(n) + " at offset " +
                          std::to_string(at) + " exceeds the " +
                          std::to_string(limit_ - pos_) + " bytes left in its frame");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::string read_string() {
    const std::uint32_t n = read_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Opens a CRC-trailed frame written by SnapshotWriter::begin/end_frame:
  /// verifies the CRC immediately, narrows the read limit to the payload,
  /// and returns a token for close_frame.
  [[nodiscard]] std::size_t open_frame(const std::string& what) {
    const std::uint32_t len = read_u32();
    need(static_cast<std::size_t>(len) + 4);
    const std::uint32_t stored =
        static_cast<std::uint32_t>(bytes_[pos_ + len]) |
        static_cast<std::uint32_t>(bytes_[pos_ + len + 1]) << 8 |
        static_cast<std::uint32_t>(bytes_[pos_ + len + 2]) << 16 |
        static_cast<std::uint32_t>(bytes_[pos_ + len + 3]) << 24;
    const std::uint32_t actual = snapshot_crc32(bytes_.data() + pos_, len);
    if (stored != actual) {
      throw SnapshotError("snapshot CRC mismatch in " + what);
    }
    const std::size_t outer = limit_;
    limit_ = pos_ + len;
    return outer;
  }

  /// Closes a frame: the payload must be fully consumed (a component that
  /// reads fewer bytes than it wrote has a save/load mismatch).
  void close_frame(std::size_t outer, const std::string& what) {
    if (pos_ != limit_) {
      throw SnapshotError("snapshot frame for " + what + " has " +
                          std::to_string(limit_ - pos_) + " unread bytes "
                          "(save_state/load_state field mismatch)");
    }
    limit_ = outer;
    pos_ += 4;  // the CRC trailer, verified by open_frame
  }

  /// Opens a u16 length-prefixed section (per-wire framing).
  [[nodiscard]] std::size_t open_short_frame() {
    const std::uint16_t len = read_u16();
    need(len);
    const std::size_t outer = limit_;
    limit_ = pos_ + len;
    return outer;
  }

  void close_short_frame(std::size_t outer, const std::string& what) {
    if (pos_ != limit_) {
      throw SnapshotError("snapshot wire payload for " + what + " has " +
                          std::to_string(limit_ - pos_) + " unread bytes");
    }
    limit_ = outer;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  void need(std::size_t n) const {
    if (limit_ - pos_ < n) {
      throw SnapshotError("snapshot truncated: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) +
                          ", frame ends at " + std::to_string(limit_));
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
};

// --- value codec -------------------------------------------------------------
//
// snapshot_write_value/snapshot_read_value serialize the payload types
// carried by wires and component registers. Scalars map onto the writer
// primitives; any other type must specialize SnapshotTraits<T> with
//   static void save(SnapshotWriter&, const T&);
//   static T load(SnapshotReader&);
// (field-wise — NEVER memcpy a padded struct, the padding bytes are
// indeterminate and break the byte-identical snapshot guarantee).

template <typename T>
struct SnapshotTraits;  // specialize for non-scalar payload types

template <typename T>
concept HasSnapshotTraits = requires(SnapshotWriter& w, SnapshotReader& r, const T& v) {
  SnapshotTraits<T>::save(w, v);
  { SnapshotTraits<T>::load(r) } -> std::convertible_to<T>;
};

template <typename T>
void snapshot_write_value(SnapshotWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.write_bool(v);
  } else if constexpr (std::is_enum_v<T>) {
    w.write_u64(static_cast<std::uint64_t>(
        static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(
            static_cast<std::underlying_type_t<T>>(v))));
  } else if constexpr (std::is_integral_v<T>) {
    w.write_u64(static_cast<std::uint64_t>(
        static_cast<std::make_unsigned_t<T>>(v)));
  } else if constexpr (std::is_floating_point_v<T>) {
    w.write_f64(static_cast<double>(v));
  } else {
    static_assert(HasSnapshotTraits<T>,
                  "no snapshot codec for this wire/state payload type: "
                  "specialize mte::sim::SnapshotTraits<T>");
    SnapshotTraits<T>::save(w, v);
  }
}

template <typename T>
[[nodiscard]] T snapshot_read_value(SnapshotReader& r) {
  if constexpr (std::is_same_v<T, bool>) {
    return r.read_bool();
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(static_cast<std::underlying_type_t<T>>(r.read_u64()));
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(r.read_u64());
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(r.read_f64());
  } else {
    static_assert(HasSnapshotTraits<T>,
                  "no snapshot codec for this wire/state payload type: "
                  "specialize mte::sim::SnapshotTraits<T>");
    return SnapshotTraits<T>::load(r);
  }
}

// --- container helpers -------------------------------------------------------

/// Writes a container whose size is structural (fixed by construction):
/// only the elements are written, and the loader checks the count matches.
/// Accepts std::vector, std::array and anything else with size()/iteration
/// over a codec-able value type.
template <typename C>
void snapshot_write_span(SnapshotWriter& w, const C& v) {
  using T = typename C::value_type;
  w.write_u64(v.size());
  for (const auto& e : v) snapshot_write_value<T>(w, e);
}

template <typename C>
void snapshot_read_span(SnapshotReader& r, C& v) {
  using T = typename C::value_type;
  const std::uint64_t n = r.read_u64();
  if (n != v.size()) {
    throw SnapshotError("snapshot span length " + std::to_string(n) +
                        " does not match structural size " +
                        std::to_string(v.size()));
  }
  // auto&& accommodates proxy references (std::vector<bool>).
  for (auto&& e : v) e = snapshot_read_value<T>(r);
}

/// Writes a vector whose size is itself state (e.g. a received-token log).
template <typename T>
void snapshot_write_vector(SnapshotWriter& w, const std::vector<T>& v) {
  w.write_u64(v.size());
  for (const auto& e : v) snapshot_write_value<T>(w, e);
}

template <typename T>
void snapshot_read_vector(SnapshotReader& r, std::vector<T>& v) {
  const std::size_t n = r.read_count();
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(snapshot_read_value<T>(r));
}

template <typename K, typename V>
void snapshot_write_map(SnapshotWriter& w, const std::map<K, V>& m) {
  w.write_u64(m.size());
  for (const auto& [k, v] : m) {
    snapshot_write_value<K>(w, k);
    snapshot_write_value<V>(w, v);
  }
}

template <typename K, typename V>
void snapshot_read_map(SnapshotReader& r, std::map<K, V>& m) {
  const std::uint64_t n = r.read_u64();
  m.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    K k = snapshot_read_value<K>(r);
    V v = snapshot_read_value<V>(r);
    m.emplace(std::move(k), std::move(v));
  }
}

}  // namespace mte::sim
