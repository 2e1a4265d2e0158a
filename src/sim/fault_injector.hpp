// FaultInjector: deterministic, seeded wire-level fault injection on named
// channels, for adversarial validation of the ProtocolMonitor.
//
// A fault plan is a list of (kind, channel, thread, cycle window) entries.
// Channels are rows of the channel table (sim/channel_row.hpp), bound by
// name with bind(); Elaboration::bind_faults binds every row. A fault
// writes thread `thread`'s valid/ready wire of a multithreaded row and the
// only pair of a single-thread row.
// The injector is a Simulator attachment (null-checked pointer, zero cost
// when detached): after each settle, and after the registered observers
// have seen the true values, apply() overwrites the targeted wires so the
// monitor and the commit phase both see the faulted state. The Simulator
// then forces a full re-evaluation on the next settle so the wires return
// to producer-driven truth identically under both kernels (an external
// wire write never re-schedules its writer, so without the forced sweep
// the event kernel would keep the stale faulted value).
//
// Fault kinds and the monitor code each must trip (the fault-matrix test
// pins this mapping per ST/MT and per kernel):
//
//   kStuckValid    valid forced 1 over the window; detected when the
//                  window ends under stall (MTE101), as a second active
//                  thread (MTE104), or as a phantom token (MTE105).
//   kDropValid     valid forced 0: detected the moment a pending
//                  transfer's valid vanishes on a persistent-valid
//                  (buffer-driven) channel (MTE101), or as a lost token
//                  when the buffer commits a pop the blinded downstream
//                  never accepted (MTE105).
//   kDropReady     ready forced 0 on a persistent-ready channel (MTE103).
//   kCorruptData   data word XORed with a seeded nonzero mask (MTE102
//                  when a transfer is pending).
//   kDuplicate     valid re-asserted after a completed transfer, replaying
//                  the settled data word (MTE101 / MTE104 / MTE105,
//                  depending on where it lands).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/channel_row.hpp"
#include "sim/types.hpp"

namespace mte::sim {

enum class FaultKind {
  kStuckValid,
  kDropValid,
  kDropReady,
  kCorruptData,
  kDuplicate,
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

class FaultInjector {
 public:
  struct Fault {
    FaultKind kind = FaultKind::kStuckValid;
    std::string channel;      ///< channel name (netlist "node:port" scheme)
    std::size_t thread = 0;   ///< thread index; ignored on ST channels
    Cycle from = 0;           ///< window [from, to)
    Cycle to = 0;
  };

  explicit FaultInjector(std::uint64_t seed = 1) : seed_(seed) {}

  /// Appends a fault to the plan. Faults may overlap.
  void add(const Fault& fault) { plan_.push_back(fault); }
  [[nodiscard]] const std::vector<Fault>& plan() const noexcept { return plan_; }

  /// Binds one channel of the table under its name. Elaboration::
  /// bind_faults binds every channel of an elaborated netlist. The row
  /// must outlive the injector's use of it.
  void bind(const ChannelRow& row);

  /// Applies every fault whose window covers `now` to the bound wires.
  /// Returns true if any wire was written (the Simulator then forces a
  /// full re-settle for the next cycle). Throws SimulationError if a
  /// planned fault names an unbound channel, or a thread the channel does
  /// not have (a multithreaded channel with S threads has 0..S-1; a
  /// single-thread channel ignores `thread`) — a silent no-op or a
  /// redirected write would make the adversarial tests vacuous.
  bool apply(Cycle now);

  /// Wire writes performed so far (diagnostics).
  [[nodiscard]] std::uint64_t injected_count() const noexcept { return injected_; }

 private:
  std::map<std::string, const ChannelRow*> bindings_;
  std::vector<Fault> plan_;
  std::uint64_t seed_;
  std::uint64_t injected_ = 0;
};

}  // namespace mte::sim
