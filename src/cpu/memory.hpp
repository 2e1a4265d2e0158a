// Behavioural memory and cache-latency models.
//
// The paper treats instruction/data memory as variable-latency units; the
// latency here comes from a direct-mapped cache model (hit/miss), which
// gives the elastic control realistic, data-dependent stall patterns.
// Contents live in a flat word array (the machine is word addressed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace mte::cpu {

class DataMemory {
 public:
  explicit DataMemory(std::size_t words) : words_(words, 0) {}

  [[nodiscard]] std::uint32_t read(std::uint32_t addr) const {
    check(addr);
    return words_[addr];
  }

  void write(std::uint32_t addr, std::uint32_t value) {
    check(addr);
    words_[addr] = value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }

  void clear() { words_.assign(words_.size(), 0); }

  void save(sim::SnapshotWriter& w) const { sim::snapshot_write_span(w, words_); }
  void load(sim::SnapshotReader& r) { sim::snapshot_read_span(r, words_); }

 private:
  // The guard stays inline and the throw is [[noreturn]], so the compiler
  // sees that an access past the end never happens.
  void check(std::uint32_t addr) const {
    if (addr >= words_.size()) out_of_range(addr);
  }

  [[noreturn]] void out_of_range(std::uint32_t addr) const {
    throw sim::SimulationError("data memory access out of range: " +
                               std::to_string(addr) + " >= " +
                               std::to_string(words_.size()));
  }

  std::vector<std::uint32_t> words_;
};

/// Direct-mapped cache *latency* model: tracks tags only and reports the
/// access latency; data always comes from the backing DataMemory.
class CacheModel {
 public:
  CacheModel(unsigned lines, unsigned words_per_line, unsigned hit_latency,
             unsigned miss_latency)
      : lines_(lines == 0 ? 1 : lines),
        words_per_line_(words_per_line == 0 ? 1 : words_per_line),
        hit_latency_(hit_latency), miss_latency_(miss_latency),
        tags_(lines_, kInvalid) {}

  /// Returns this access's latency and updates the tag state.
  unsigned access(std::uint32_t addr) {
    const std::uint32_t line_addr = addr / words_per_line_;
    const std::uint32_t index = line_addr % lines_;
    const std::uint32_t tag = line_addr / lines_;
    if (tags_[index] == tag) {
      ++hits_;
      return hit_latency_;
    }
    tags_[index] = tag;
    ++misses_;
    return miss_latency_;
  }

  void reset() {
    tags_.assign(lines_, kInvalid);
    hits_ = misses_ = 0;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

  void save(sim::SnapshotWriter& w) const {
    sim::snapshot_write_span(w, tags_);
    w.write_u64(hits_);
    w.write_u64(misses_);
  }

  void load(sim::SnapshotReader& r) {
    sim::snapshot_read_span(r, tags_);
    hits_ = r.read_u64();
    misses_ = r.read_u64();
  }

 private:
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  unsigned lines_;
  unsigned words_per_line_;
  unsigned hit_latency_;
  unsigned miss_latency_;
  std::vector<std::uint32_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mte::cpu
