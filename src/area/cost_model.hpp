// FPGA cost model (paper Sec. V-C substitution).
//
// The paper reports post-synthesis area in logic elements (LEs) and clock
// frequency on an FPGA. We replace synthesis with an analytical model:
// every primitive's LE count is derived from its structural register/LUT
// content (one LE = one 4-LUT + one FF, FF and LUT of the same bit pack
// into one LE when a register is fed by a small mux), and the design
// frequency comes from the slowest primitive's logic depth inflated by a
// wiring term that grows with total area. Absolute numbers are
// calibration; the *shape* of Table I (who wins, how savings scale with
// thread count, the slight frequency edge of the smaller design) follows
// from the structure, which is what EXPERIMENTS.md checks.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mt/meb_variant.hpp"

namespace mte::area {

/// Tunable technology constants.
struct CostParams {
  double le_per_reg_bit = 1.0;       ///< register bit (with input mux packed)
  double le_per_latch_bit = 0.6;     ///< level-sensitive latch bit (paper
                                     ///< Sec. I: MEBs "can be designed ...
                                     ///< either with regular edge-triggered
                                     ///< flip flops or level sensitive
                                     ///< latches"); latches are cheaper
  double le_per_mux2_bit = 0.5;      ///< extra 2:1 mux level per bit
  double le_per_add_bit = 1.0;       ///< ripple-carry adder bit
  double le_per_lut_bit = 1.0;       ///< generic random-logic bit
  double le_eb_control = 4.0;        ///< 3-state EB handshake FSM
  double le_meb_thread_control = 7.0;///< per-thread EB control + handshake pair
  double le_shared_control = 3.0;    ///< reduced MEB shared-buffer FSM
  double le_arbiter_per_thread = 4.0;
  double le_barrier_per_thread = 6.0;
  double le_barrier_counter = 12.0;

  double ns_per_lut_level = 0.9;     ///< one LUT + local routing
  double wiring_alpha = 0.09;        ///< delay inflation per sqrt(kLE)
};

/// One named contribution to a design's area.
struct AreaItem {
  std::string name;
  double les = 0;
  double logic_levels = 0;  ///< combinational depth through this primitive
};

/// Aggregated design estimate.
struct DesignEstimate {
  std::string name;
  std::vector<AreaItem> items;

  [[nodiscard]] double total_les() const {
    double sum = 0;
    for (const auto& item : items) sum += item.les;
    return sum;
  }

  [[nodiscard]] double max_logic_levels() const {
    double levels = 0;
    for (const auto& item : items) levels = std::max(levels, item.logic_levels);
    return levels;
  }
};

/// Storage-cell technology for buffer datapaths.
enum class StorageKind { kFlipFlop, kLatch };

class CostModel {
 public:
  explicit CostModel(CostParams params = {}) : p_(params) {}

  [[nodiscard]] const CostParams& params() const noexcept { return p_; }

  [[nodiscard]] double storage_bit_les(StorageKind storage) const noexcept {
    return storage == StorageKind::kFlipFlop ? p_.le_per_reg_bit : p_.le_per_latch_bit;
  }

  /// Full/reduced MEB with an explicit storage-cell choice; the default
  /// overloads below use flip-flops.
  [[nodiscard]] AreaItem meb_with_storage(const std::string& name, unsigned bits,
                                          unsigned threads, mt::MebKind kind,
                                          StorageKind storage) const {
    const double bit = storage_bit_les(storage);
    AreaItem a{name, 0, 2 + std::log2(std::max(2u, threads))};
    if (kind == mt::MebKind::kFull) {
      a.les = threads * (2.0 * bits * bit + p_.le_meb_thread_control) +
              out_mux_les(bits, threads) + arbiter_les(threads);
    } else {
      a.les = threads * (1.0 * bits * bit + p_.le_meb_thread_control) +
              1.0 * bits * bit + bits * p_.le_per_mux2_bit + p_.le_shared_control +
              out_mux_les(bits, threads) + arbiter_les(threads);
    }
    return a;
  }

  /// Single-thread 2-slot elastic buffer of data width `bits`.
  [[nodiscard]] AreaItem eb(const std::string& name, unsigned bits) const {
    AreaItem a{name, 0, 2};
    a.les = 2.0 * bits * p_.le_per_reg_bit + p_.le_eb_control;
    return a;
  }

  /// S:1 output data multiplexer.
  [[nodiscard]] double out_mux_les(unsigned bits, unsigned threads) const {
    if (threads <= 1) return 0;
    return static_cast<double>(bits) * (threads - 1) * p_.le_per_mux2_bit;
  }

  [[nodiscard]] double arbiter_les(unsigned threads) const {
    return p_.le_arbiter_per_thread * threads;
  }

  /// Policy-aware arbiter cost (the DSE arbiter axis). Round-robin is the
  /// reference; oblivious drops the ready-qualification logic, fixed
  /// priority is a bare priority chain, and the matrix arbiter adds the
  /// S(S-1)/2 order-bit upper triangle.
  [[nodiscard]] double arbiter_les(unsigned threads, mt::ArbiterKind kind) const {
    const double base = arbiter_les(threads);
    switch (kind) {
      case mt::ArbiterKind::kRoundRobin: return base;
      case mt::ArbiterKind::kOblivious: return 0.75 * base;
      case mt::ArbiterKind::kFixedPriority: return 0.5 * base;
      case mt::ArbiterKind::kMatrix:
        return base + 0.5 * threads * (threads > 0 ? threads - 1 : 0);
    }
    return base;
  }

  /// Full MEB (paper Fig. 4): one 2-slot EB per thread + arbiter + mux.
  [[nodiscard]] AreaItem full_meb(const std::string& name, unsigned bits,
                                  unsigned threads) const {
    AreaItem a{name, 0, 2 + std::log2(std::max(2u, threads))};
    a.les = threads * (2.0 * bits * p_.le_per_reg_bit + p_.le_meb_thread_control) +
            out_mux_les(bits, threads) + arbiter_les(threads);
    return a;
  }

  /// Reduced MEB (paper Fig. 6): one main register per thread + one shared
  /// auxiliary register + per-thread control + shared-buffer FSM.
  [[nodiscard]] AreaItem reduced_meb(const std::string& name, unsigned bits,
                                     unsigned threads) const {
    AreaItem a{name, 0, 2 + std::log2(std::max(2u, threads))};
    a.les = threads * (1.0 * bits * p_.le_per_reg_bit + p_.le_meb_thread_control) +
            1.0 * bits * p_.le_per_reg_bit +  // the dynamically shared slot
            bits * p_.le_per_mux2_bit +       // main-register refill mux
            p_.le_shared_control + out_mux_les(bits, threads) + arbiter_les(threads);
    return a;
  }

  [[nodiscard]] AreaItem meb(const std::string& name, unsigned bits, unsigned threads,
                             mt::MebKind kind) const {
    return kind == mt::MebKind::kFull ? full_meb(name, bits, threads)
                                      : reduced_meb(name, bits, threads);
  }

  /// Reduced MEB with a pool of K shared slots (the DSE's `hybrid`
  /// variant, the capacity ablation of Sec. III-A): one main register per
  /// thread plus K dynamically shared slots. K = 1 matches reduced_meb();
  /// K = S approaches the full MEB's storage with shared-pool wiring.
  [[nodiscard]] AreaItem hybrid_meb(const std::string& name, unsigned bits,
                                    unsigned threads, unsigned shared_slots) const {
    AreaItem a{name, 0, 2 + std::log2(std::max(2u, threads))};
    a.les = threads * (1.0 * bits * p_.le_per_reg_bit + p_.le_meb_thread_control) +
            shared_slots * (1.0 * bits * p_.le_per_reg_bit + p_.le_shared_control) +
            bits * p_.le_per_mux2_bit +  // main-register refill mux
            out_mux_les(bits, threads) + arbiter_les(threads);
    return a;
  }

  /// Barrier (paper Fig. 8): counter + comparator + per-thread FSMs.
  [[nodiscard]] AreaItem barrier(const std::string& name, unsigned threads) const {
    AreaItem a{name, 0, 2};
    a.les = p_.le_barrier_counter + p_.le_barrier_per_thread * threads;
    return a;
  }

  /// M-Join / M-Fork / M-Branch / M-Merge handshake logic.
  [[nodiscard]] AreaItem m_operator(const std::string& name, unsigned threads,
                                    double le_per_thread = 3.0) const {
    AreaItem a{name, 0, 1};
    a.les = le_per_thread * threads;
    return a;
  }

  /// Generic combinational block described by adder bits, random-logic
  /// bits and its logic depth in LUT levels.
  [[nodiscard]] AreaItem comb(const std::string& name, double adder_bits,
                              double lut_bits, double levels) const {
    AreaItem a{name, 0, levels};
    a.les = adder_bits * p_.le_per_add_bit + lut_bits * p_.le_per_lut_bit;
    return a;
  }

  /// Design frequency in MHz from the critical logic depth and a wiring
  /// penalty that grows with total area (smaller designs clock faster —
  /// the effect the paper observes for reduced-MEB builds).
  [[nodiscard]] double frequency_mhz(const DesignEstimate& d) const {
    const double logic_ns = d.max_logic_levels() * p_.ns_per_lut_level;
    const double wiring = 1.0 + p_.wiring_alpha * std::sqrt(d.total_les() / 1000.0);
    return 1000.0 / (logic_ns * wiring);
  }

 private:
  CostParams p_;
};

}  // namespace mte::area
